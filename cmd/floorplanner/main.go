// Command floorplanner runs the thermal-aware GA floorplanner on a list
// of blocks and writes the resulting .flp.
//
// Blocks are given as comma-separated name:area_mm2[:minAspect:maxAspect]
// specs; per-block power (for the thermal objective) as name:watts pairs.
//
// Usage:
//
//	floorplanner -blocks "cpu:16,dsp:9,mem:25" -power "cpu:8,dsp:3" -o chip.flp
//	floorplanner -blocks "a:4,b:4,c:4,d:4" -seed 3
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/search"
)

func main() {
	var (
		blocksSpec = flag.String("blocks", "", "comma-separated name:area_mm2[:minAR:maxAR] block specs")
		powerSpec  = flag.String("power", "", "comma-separated name:watts pairs for the thermal objective")
		gens       = flag.Int("gens", 60, "GA generations")
		seed       = flag.Int64("seed", 1, "search seed")
		parallel   = flag.Int("parallelism", 1, "concurrent packing evaluations (results are byte-identical at every value)")
		tempWeight = flag.Float64("tempweight", 1.0, "thermal objective weight (0 = area only)")
		out        = flag.String("o", "", "output .flp file (default stdout)")
	)
	flag.Parse()

	blocks, err := parseBlocks(*blocksSpec)
	if err != nil {
		fatal(err)
	}
	power, err := parsePower(*powerSpec)
	if err != nil {
		fatal(err)
	}

	cfg := floorplan.DefaultGAConfig()
	cfg.Generations = *gens
	cfg.Seed = *seed
	cfg.Pool = search.NewPool(*parallel)
	cfg.TempWeight = *tempWeight
	if *tempWeight > 0 && len(power) > 0 {
		hs := hotspot.DefaultConfig()
		cfg.Eval = func(fp *floorplan.Floorplan, pw map[string]float64) (float64, error) {
			return hotspot.SteadyPeak(fp, hs, pw)
		}
		cfg.Power = power
	} else {
		cfg.TempWeight = 0
	}
	res, err := floorplan.RunGA(context.Background(), blocks, cfg)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "ga: area %.2f mm² (deadspace %.1f%%), %d packings evaluated\n",
		res.Area*1e6, 100*res.Plan.Deadspace(), res.Evals)
	if res.PeakTemp == res.PeakTemp { // not NaN
		fmt.Fprintf(os.Stderr, "peak temperature %.2f °C\n", res.PeakTemp)
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := res.Plan.Write(w); err != nil {
		fatal(err)
	}
}

func parseBlocks(spec string) ([]floorplan.Block, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("need -blocks")
	}
	var out []floorplan.Block
	for _, item := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 2 && len(parts) != 4 {
			return nil, fmt.Errorf("block spec %q: want name:area_mm2[:minAR:maxAR]", item)
		}
		area, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("block spec %q: bad area: %w", item, err)
		}
		b := floorplan.Block{Name: parts[0], Area: area * 1e-6, MinAspect: 0.5, MaxAspect: 2}
		if len(parts) == 4 {
			lo, err1 := strconv.ParseFloat(parts[2], 64)
			hi, err2 := strconv.ParseFloat(parts[3], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("block spec %q: bad aspect ratios", item)
			}
			b.MinAspect, b.MaxAspect = lo, hi
		}
		out = append(out, b)
	}
	return out, nil
}

func parsePower(spec string) (map[string]float64, error) {
	out := map[string]float64{}
	if strings.TrimSpace(spec) == "" {
		return out, nil
	}
	for _, item := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(item), ":")
		if len(parts) != 2 {
			return nil, fmt.Errorf("power spec %q: want name:watts", item)
		}
		w, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, fmt.Errorf("power spec %q: bad watts: %w", item, err)
		}
		out[parts[0]] = w
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "floorplanner:", err)
	os.Exit(1)
}
