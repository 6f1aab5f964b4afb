package experiments

import (
	"context"
	"fmt"
	"strings"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/dtm"
	rt "thermalsched/internal/runtime"
	"thermalsched/internal/sched"
	"thermalsched/internal/sim"
)

// DTMCell is one benchmark × policy entry of the closed-loop run-time
// comparison.
type DTMCell struct {
	ThrottleTime float64 // total busy PE time below full speed, schedule units
	Makespan     float64 // realized makespan under throttling
	PeakTempC    float64 // hottest transient block temperature
	DeadlineMet  bool
}

// DTMSettings parameterizes the closed-loop study: one toggle
// controller configuration applied identically to both policies.
type DTMSettings struct {
	TriggerC   float64
	Hysteresis float64
	Throttle   float64
	DT         float64
	TimeScale  float64
}

// DefaultDTMSettings is the calibration of the run-time comparison: the
// trigger sits just below the paper benchmarks' steady-state peaks
// (83–88 °C on the platform), so a thermally unbalanced schedule
// crosses it during execution while a balanced one mostly stays under.
func DefaultDTMSettings() DTMSettings {
	return DTMSettings{TriggerC: 80, Hysteresis: 2, Throttle: 0.5, DT: 1, TimeScale: 0.1}
}

// DTMTable is the run-time counterpart of the paper's Table 3: instead
// of comparing steady-state temperatures of the power-aware (heuristic
// 3) and thermal-aware platform schedules, it runs both under the same
// closed-loop DTM controller and compares what the paper's framing
// ultimately promises — less throttling and fewer deadline misses at
// run time.
type DTMTable struct {
	Title      string
	Settings   DTMSettings
	Benchmarks []string
	Power      map[string]DTMCell
	Thermal    map[string]DTMCell
}

// RunTableDTM regenerates the closed-loop comparison over the suite's
// benchmarks. Both policies are simulated with identical controller
// settings, worst-case execution times (MinFactor 1) and a cold start,
// so every difference is attributable to the static schedule.
func (s *Suite) RunTableDTM(set DTMSettings) (*DTMTable, error) {
	t := &DTMTable{
		Title: fmt.Sprintf("Run-time DTM comparison on platform architecture (toggle @ %.0f °C, throttle %.2f)",
			set.TriggerC, set.Throttle),
		Settings: set,
		Power:    make(map[string]DTMCell),
		Thermal:  make(map[string]DTMCell),
	}
	for _, g := range s.Graphs {
		label := benchLabel(g)
		t.Benchmarks = append(t.Benchmarks, label)
		for _, p := range []sched.Policy{sched.MinTaskEnergy, sched.ThermalAware} {
			res, err := cosynth.RunPlatform(context.Background(), g, s.Lib, cosynth.PlatformConfig{Policy: p})
			if err != nil {
				return nil, fmt.Errorf("experiments: dtm table %s/%s: %w", g.Name, p, err)
			}
			ctrl, err := dtm.NewToggleController(set.TriggerC, set.Hysteresis, set.Throttle)
			if err != nil {
				return nil, err
			}
			sup, err := dtm.Supervise(ctrl, dtm.DefaultLadder)
			if err != nil {
				return nil, err
			}
			r, err := rt.Simulate(context.Background(), res.Schedule, res.Model, rt.Config{
				DT: set.DT, TimeScale: set.TimeScale, Supervisor: sup,
				Exec: sim.Options{MinFactor: 1},
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: dtm simulate %s/%s: %w", g.Name, p, err)
			}
			cell := DTMCell{
				ThrottleTime: r.ThrottleTime,
				Makespan:     r.Makespan,
				PeakTempC:    r.PeakTempC,
				DeadlineMet:  r.DeadlineMet,
			}
			if p == sched.MinTaskEnergy {
				t.Power[label] = cell
			} else {
				t.Thermal[label] = cell
			}
		}
	}
	return t, nil
}

// ThrottleWins counts the benchmarks on which the thermal-aware
// schedule accumulated strictly less throttle time, and MissDelta the
// net deadline misses avoided (power misses − thermal misses).
func (t *DTMTable) ThrottleWins() (wins int) {
	for _, label := range t.Benchmarks {
		if t.Thermal[label].ThrottleTime < t.Power[label].ThrottleTime {
			wins++
		}
	}
	return wins
}

// MissDelta is the number of deadline misses the thermal-aware schedule
// avoids relative to the power-aware one under the same controller.
func (t *DTMTable) MissDelta() int {
	d := 0
	for _, label := range t.Benchmarks {
		if !t.Power[label].DeadlineMet {
			d++
		}
		if !t.Thermal[label].DeadlineMet {
			d--
		}
	}
	return d
}

// String renders the table in the layout of the paper's versus tables.
func (t *DTMTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	fmt.Fprintf(&b, "%-22s | %30s | %30s\n", "", "power-aware", "thermal-aware")
	fmt.Fprintf(&b, "%-22s | %9s %9s %10s | %9s %9s %10s\n",
		"benchmark", "Throttle", "Makespan", "Deadline", "Throttle", "Makespan", "Deadline")
	meets := func(ok bool) string {
		if ok {
			return "met"
		}
		return "MISSED"
	}
	for _, label := range t.Benchmarks {
		p, th := t.Power[label], t.Thermal[label]
		fmt.Fprintf(&b, "%-22s | %9.1f %9.1f %10s | %9.1f %9.1f %10s\n",
			label, p.ThrottleTime, p.Makespan, meets(p.DeadlineMet),
			th.ThrottleTime, th.Makespan, meets(th.DeadlineMet))
	}
	fmt.Fprintf(&b, "thermal-aware throttles less on %d/%d benchmarks, avoids %+d deadline miss(es)\n",
		t.ThrottleWins(), len(t.Benchmarks), t.MissDelta())
	return b.String()
}
