// Command tables regenerates the paper's evaluation tables (Tables 1–3)
// in the paper's layout, plus the repository's beyond-the-paper scaling
// study.
//
// Usage:
//
//	tables            # all three tables
//	tables -table 3   # one table
//	tables -fpgens 40 # heavier floorplanning inside co-synthesis
//	tables -scaling   # thermal-aware scheduling from 20 to 500 tasks
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/experiments"
	"thermalsched/internal/hotspot"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table to regenerate (1, 2 or 3; 0 = all)")
		fpGens    = flag.Int("fpgens", 20, "GA floorplanner generations inside co-synthesis")
		sweep     = flag.Int("sweep", 0, "additionally run a randomized robustness sweep of this many graphs")
		sweepSeed = flag.Int64("sweepseed", 7, "seed for the robustness sweep")
		scaling   = flag.Bool("scaling", false, "run only the scaling study (20 to 500 tasks on a generated 8-PE platform)")
		scalePEs  = flag.Int("scalepes", 0, "scaling study PE count (0 = default 8)")
		scaleSeed = flag.Int64("scaleseed", 1, "scaling study seed (0 is a valid seed)")
		solver    = flag.String("solver", "", fmt.Sprintf("scaling-study thermal solver backend %v (default dense: natural-order sparse Cholesky plus the full influence matrix; sparse: min-degree order plus truncated cached influence rows)", hotspot.SolverNames()))
	)
	flag.Parse()

	if *scaling {
		hs := hotspot.DefaultConfig()
		hs.Solver = *solver
		if err := hs.Validate(); err != nil {
			fatal(err)
		}
		t, err := experiments.RunScalingTable(context.Background(), nil, *scalePEs, *scaleSeed, cosynth.PlatformConfig{HotSpot: &hs}, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
		return
	}

	s, err := experiments.NewSuite()
	if err != nil {
		fatal(err)
	}
	s.FloorplanGenerations = *fpGens
	defer func() {
		if *sweep > 0 {
			r, err := experiments.RunSweep(context.Background(), s.Lib, *sweep, *sweepSeed, cosynth.PlatformConfig{})
			if err != nil {
				fatal(err)
			}
			fmt.Println(r)
		}
	}()

	run1 := func() {
		t, err := s.RunTable1()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	run2 := func() {
		t, err := s.RunTable2()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}
	run3 := func() {
		t, err := s.RunTable3()
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
	}

	switch *table {
	case 0:
		run1()
		run2()
		run3()
	case 1:
		run1()
	case 2:
		run2()
	case 3:
		run3()
	default:
		fatal(fmt.Errorf("unknown table %d (want 1, 2 or 3)", *table))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
