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

	"thermalsched"
)

func main() {
	var (
		table     = flag.Int("table", 0, "table to regenerate (1, 2 or 3; 0 = all)")
		fpGens    = flag.Int("fpgens", 20, "GA floorplanner generations inside co-synthesis")
		scaling   = flag.Bool("scaling", false, "run only the scaling study (20 to 500 tasks on a generated 8-PE platform)")
		scalePEs  = flag.Int("scalepes", 0, "scaling study PE count (0 = default 8)")
		scaleSeed = flag.Int64("scaleseed", 1, "scaling study seed (0 is a valid seed)")
	)
	flag.Parse()

	eng, err := thermalsched.NewEngine()
	if err != nil {
		fatal(err)
	}
	if *scaling {
		t, err := eng.ScalingTable(context.Background(), nil, *scalePEs, *scaleSeed)
		if err != nil {
			fatal(err)
		}
		fmt.Println(t)
		return
	}
	t, err := eng.PaperTables(context.Background(), *table, *fpGens)
	if err != nil {
		fatal(err)
	}
	fmt.Print(t)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tables:", err)
	os.Exit(1)
}
