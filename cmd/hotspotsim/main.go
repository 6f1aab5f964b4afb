// Command hotspotsim runs the compact thermal model standalone: steady
// state from a floorplan and per-block powers, or a transient simulation
// driven by a .ptrace file.
//
// Usage:
//
//	hotspotsim -flp chip.flp -power "cpu:8,dsp:3"
//	hotspotsim -flp chip.flp -ptrace run.ptrace -dt 0.01
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"thermalsched/internal/floorplan"
	"thermalsched/internal/hotspot"
)

func main() {
	var (
		flpFile    = flag.String("flp", "", "floorplan file (.flp, HotSpot format)")
		powerSpec  = flag.String("power", "", "steady state: comma-separated name:watts")
		ptraceFile = flag.String("ptrace", "", "transient: power trace file")
		dt         = flag.Float64("dt", 0.01, "transient step in seconds")
		ambient    = flag.Float64("ambient", hotspot.DefaultConfig().AmbientC, "ambient temperature °C")
		heatMap    = flag.Int("map", 0, "render an ASCII heat map this many columns wide (steady state only)")
	)
	flag.Parse()

	if *flpFile == "" {
		fatal(fmt.Errorf("need -flp"))
	}
	f, err := os.Open(*flpFile)
	if err != nil {
		fatal(err)
	}
	fp, err := floorplan.Read(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	cfg := hotspot.DefaultConfig()
	cfg.AmbientC = *ambient
	model, err := hotspot.NewModel(fp, cfg)
	if err != nil {
		fatal(err)
	}

	switch {
	case *ptraceFile != "":
		runTransient(model, *ptraceFile, *dt)
	default:
		runSteady(model, fp, *powerSpec, *heatMap)
	}
}

func runSteady(model *hotspot.Model, fp *floorplan.Floorplan, powerSpec string, heatMap int) {
	power := map[string]float64{}
	if strings.TrimSpace(powerSpec) != "" {
		for _, item := range strings.Split(powerSpec, ",") {
			parts := strings.Split(strings.TrimSpace(item), ":")
			if len(parts) != 2 {
				fatal(fmt.Errorf("power spec %q: want name:watts", item))
			}
			w, err := strconv.ParseFloat(parts[1], 64)
			if err != nil {
				fatal(fmt.Errorf("power spec %q: %w", item, err))
			}
			power[parts[0]] = w
		}
	}
	temps, err := model.SteadyState(power)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# steady state: max %.2f °C, avg %.2f °C, spread %.2f °C\n",
		temps.Max(), temps.Avg(), temps.Spread())
	for _, name := range temps.Names() {
		t, _ := temps.Of(name)
		fmt.Printf("%s\t%.3f\n", name, t)
	}
	if heatMap > 0 {
		if err := hotspot.WriteHeatMap(os.Stdout, fp, temps, heatMap); err != nil {
			fatal(err)
		}
	}
}

func runTransient(model *hotspot.Model, ptraceFile string, dt float64) {
	f, err := os.Open(ptraceFile)
	if err != nil {
		fatal(err)
	}
	trace, err := hotspot.ReadPowerTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	samples, err := trace.Reorder(model.BlockNames())
	if err != nil {
		fatal(err)
	}
	tr, err := model.NewTransient(dt)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("# transient: %d samples, dt %g s\n", len(samples), dt)
	fmt.Printf("# time\tmax\tavg\n")
	for i, s := range samples {
		temps, err := tr.StepVec(s)
		if err != nil {
			fatal(fmt.Errorf("sample %d: %w", i, err))
		}
		fmt.Printf("%.4f\t%.3f\t%.3f\n", tr.Time(), temps.Max(), temps.Avg())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hotspotsim:", err)
	os.Exit(1)
}
