// Package runtime is the schedule executor: it replays a static
// schedule with realized execution times (a seeded fraction of each
// task's WCET) while closing the loop between that discrete-event
// replay, the transient thermal RC model (hotspot.Transient) and a
// dynamic-thermal-management controller (internal/dtm).
//
// The paper evaluates worst-case schedules only; this executor is the
// run-time companion. The task→PE mapping and each PE's dispatch order
// come from the static schedule (DispatchQueues), and actual durations
// and conditional branches come from one seeded draw (Realize). With no
// supervisor every PE runs at full speed, and makespan and energy can
// only shrink when execution times shrink.
//
// Scaling a fixed power trace would let throttling cut power without
// slowing anything down, leaving the performance cost of DTM only a
// proxy (denied energy). This package models the real feedback: the
// executor and the thermal model advance
// in lockstep steps of DT schedule time units, the controller observes
// the block temperatures after every step, and when it throttles a PE's
// power by factor s the task currently executing there stretches — its
// remaining work completes at rate s while drawing s × nominal power.
// Throttling therefore feeds back into task finish times, downstream
// ready times, makespan, deadline misses and the subsequent power the
// die sees, which is exactly how a thermally balanced static schedule
// pays off at run time: cooler blocks cross the trigger later (or
// never), accumulate less throttle time, and miss fewer deadlines.
package runtime

import (
	"context"
	"fmt"
	"math"

	"thermalsched/internal/coloop"
	"thermalsched/internal/dtm"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
)

// Config parameterizes one closed-loop co-simulation.
type Config struct {
	// DT is the co-simulation step in schedule time units: the executor
	// advances by DT, then the thermal model steps once, then the
	// supervisor updates the throttle scales for the next step (a
	// one-step sensing delay, as in a real DTM loop).
	DT float64
	// TimeScale converts one schedule time unit into seconds of thermal
	// simulation; the transient integrates with step DT × TimeScale.
	TimeScale float64
	// Supervisor throttles per-block power. When it is also a
	// dtm.Supervisor, it gates task starts through coloop.Gate: a
	// refused PE's queue head waits at full speed until its hold ends,
	// instead of starting and being throttled. The reactive toggle and
	// PI controllers only throttle. Nil disables DTM — every PE runs at
	// full speed, which is the unthrottled reference run.
	Supervisor dtm.Controller
	// MinFactor is the lower bound of the per-task execution-time factor:
	// actual duration = WCET × uniform[MinFactor, 1]. 1 replays the
	// worst case exactly.
	MinFactor float64
	// Seed drives the per-task factors and the branch realization.
	Seed int64
	// Conditional enables conditional-task-graph execution: each edge
	// fires with its annotated probability (given its source executed);
	// tasks none of whose incoming edges fired are skipped and their
	// reserved PE slots are simply not used. Sources always execute.
	Conditional bool
	// WarmStart initializes the thermal state to the steady-state
	// operating point of the schedule's deadline-averaged power instead
	// of cold ambient, modeling a die that has been running the workload
	// for a while.
	WarmStart bool
}

// Validate reports the first invalid configuration field.
func (c Config) Validate() error {
	if !(c.DT > 0) {
		return fmt.Errorf("runtime: step DT must be positive, got %g", c.DT)
	}
	if !(c.TimeScale > 0) {
		return fmt.Errorf("runtime: TimeScale must be positive, got %g", c.TimeScale)
	}
	if c.MinFactor <= 0 || c.MinFactor > 1 {
		return fmt.Errorf("runtime: MinFactor %g out of (0, 1]", c.MinFactor)
	}
	return nil
}

// Result is the outcome of one closed-loop run.
type Result struct {
	// Records holds the realized execution, indexed by task ID, with
	// skipped conditional branches marked. Power is the nominal
	// (unthrottled) draw of the task.
	Records []TaskRecord
	// Makespan is the realized completion time in schedule units —
	// under throttling it exceeds the unthrottled makespan of the same
	// realization.
	Makespan float64
	// Energy is the energy actually delivered, Σ scaled power × time.
	// Because throttling stretches work at conserved energy-per-task it
	// equals the nominal energy of the executed tasks.
	Energy float64
	// PerPEEnergy splits Energy by PE; a PE hosting only skipped
	// branches contributes exactly zero.
	PerPEEnergy []float64
	// Executed counts the tasks that actually ran.
	Executed int
	// Steps is the number of co-simulation steps taken.
	Steps int
	// PeakTempC is the hottest block temperature observed at any step.
	PeakTempC float64
	// ThrottleTime is the total busy PE time spent below full speed, in
	// schedule units — the run-time cost the static schedule is judged
	// by. PerPEThrottle splits it by PE.
	ThrottleTime  float64
	PerPEThrottle []float64
	// AdmissionDenials counts the admission queries a proactive
	// supervisor denied. A held head waits without asking, and a hold
	// ends with its sensing step, so an embargo is counted once per step
	// it reaches. Zero under reactive controllers.
	AdmissionDenials int
	// DeadlineMet reports Makespan ≤ the graph's deadline.
	DeadlineMet bool

	real *Realization // the draw this run executed, for Validate
}

// completion tolerance: a task is done when its remaining work falls to
// a rounding error of its realized duration.
const workEps = 1e-9

// Simulate runs the schedule under the closed DTM loop. The model must
// contain a same-named block for every architecture PE (the platform
// and co-synthesis flows guarantee this). Cancelling ctx aborts the
// stepped loop promptly.
func Simulate(ctx context.Context, s *sched.Schedule, model *hotspot.Model, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}
	real, err := Realize(s, cfg)
	if err != nil {
		return nil, err
	}

	// PE → thermal block mapping, by name.
	nPE := len(s.Arch.PEs)
	peNames := make([]string, nPE)
	for i, pe := range s.Arch.PEs {
		peNames[i] = pe.Name
	}
	peBlock, err := coloop.PEBlocks(model, peNames)
	if err != nil {
		return nil, fmt.Errorf("runtime: %w", err)
	}

	// The stall bound is a safety net against a controller that
	// throttles the die to a standstill: 64 times the static makespan.
	core, err := coloop.New(coloop.Config{
		Model:      model,
		PEBlock:    peBlock,
		DT:         cfg.DT,
		TimeScale:  cfg.TimeScale,
		MaxSteps:   64*int(math.Ceil(s.Makespan/cfg.DT)) + 4096,
		Supervisor: cfg.Supervisor,
		TrackPerPE: true,
	})
	if err != nil {
		return nil, err
	}
	if cfg.WarmStart {
		avg, err := s.PEAveragePower(s.Graph.Deadline)
		if err != nil {
			return nil, err
		}
		blockAvg := make([]float64, model.NumBlocks())
		for pe, w := range avg {
			blockAvg[peBlock[pe]] += w
		}
		if err := core.WarmStart(blockAvg); err != nil {
			return nil, err
		}
	}

	// The gate forecasts over WCET durations (realized durations are
	// future knowledge); it is nil for reactive controllers.
	var maxDur float64
	for _, a := range s.Assignments {
		maxDur = max(maxDur, a.Finish-a.Start)
	}
	gate, err := core.Gate(maxDur)
	if err != nil {
		return nil, err
	}

	n := s.Graph.NumTasks()
	queues := DispatchQueues(s)
	next := make([]int, nPE)        // per-PE queue cursor
	running := make([]int, nPE)     // task executing on the PE, or -1
	remaining := make([]float64, n) // work left, in schedule units at full speed
	done := make([]bool, n)
	records := make([]TaskRecord, n)
	for pe := range running {
		running[pe] = -1
	}

	// The core owns the outer DT loop and its buffers: Step fills
	// core.StepEnergy and reads core.Scale, frozen for the step.
	scale, stepEnergy := core.Scale, core.StepEnergy

	res := &Result{
		Records:       records,
		PerPEThrottle: make([]float64, nPE),
		real:          real,
	}

	// readyAt is the dispatch ready rule: when task id's inputs are
	// available on PE pe, with ok false while any predecessor is still
	// pending. Only fired edges carry data, with bus delay across PEs;
	// skipped predecessors impose no delay. CheckExecution checks
	// records against the same rule.
	readyAt := func(id, pe int) (float64, bool) {
		t := 0.0
		for _, e := range s.Graph.Predecessors(id) {
			if !done[e.From] {
				return 0, false
			}
			if !real.Fired(e.From, e.To) || records[e.From].Skipped {
				continue
			}
			r := records[e.From].Finish
			if records[e.From].PE != pe {
				r += e.Data * s.Arch.BusTimePerUnit
			}
			if r > t {
				t = r
			}
		}
		return t, true
	}

	completed := 0
	// step is the micro event loop inside [now, stepEnd): dispatch
	// ready (and admitted) tasks, advance running ones at their PE's
	// throttle rate, process completions, repeat. Scales and
	// temperatures are frozen for the step.
	step := func(now, stepEnd float64) error {
		t := now
		for {
			// Dispatch to fixpoint: skipped branches complete instantly
			// (which can unblock heads on other PEs within the same
			// instant); runnable heads start once their inputs have
			// arrived and the supervisor admits them.
			for progressed := true; progressed; {
				progressed = false
				for pe := range queues {
					for running[pe] < 0 && next[pe] < len(queues[pe]) {
						id := queues[pe][next[pe]]
						if !real.Executes[id] {
							records[id] = TaskRecord{Task: id, PE: pe, Skipped: true}
							done[id] = true
							next[pe]++
							completed++
							progressed = true
							continue
						}
						ready, ok := readyAt(id, pe)
						if !ok || ready > t {
							break
						}
						if gate.Expiry(pe) > t {
							break // the head waits out its admission hold
						}
						a := s.Assignments[id]
						if admitted, _ := gate.Admit(pe, a.Power, a.Finish-a.Start, t); !admitted {
							break
						}
						records[id] = TaskRecord{
							Task: id, PE: pe, Start: t,
							Power: s.Assignments[id].Power,
						}
						remaining[id] = real.Actual[id]
						running[pe] = id
						next[pe]++
						progressed = true
					}
				}
			}
			if completed == n {
				return nil
			}

			// Next event: earliest completion, upcoming ready time or
			// expiring admission hold, capped at the step boundary.
			event := stepEnd
			for pe, id := range running {
				if id < 0 {
					continue
				}
				speed := scale[peBlock[pe]]
				if speed <= 0 {
					continue // stalled; can only resume after the controller relents
				}
				if fin := t + remaining[id]/speed; fin < event {
					event = fin
				}
			}
			for pe := range queues {
				if running[pe] >= 0 || next[pe] >= len(queues[pe]) {
					continue
				}
				id := queues[pe][next[pe]]
				if !real.Executes[id] {
					continue // handled by dispatch above
				}
				ready, ok := readyAt(id, pe)
				if !ok {
					continue
				}
				ready = max(ready, gate.Expiry(pe)) // the head waits out its admission hold
				if ready > t && ready < event {
					event = ready
				}
			}

			// Advance all running tasks to the event, accumulating the
			// scaled energy and the throttled busy time.
			dt := event - t
			if dt > 0 {
				for pe, id := range running {
					if id < 0 {
						continue
					}
					speed := scale[peBlock[pe]]
					remaining[id] -= speed * dt
					w := records[id].Power
					stepEnergy[pe] += w * speed * dt
					if speed < 1 {
						res.PerPEThrottle[pe] += dt
					}
				}
			}
			t = event

			// Completions at the event instant.
			for pe, id := range running {
				if id < 0 {
					continue
				}
				if remaining[id] <= workEps*math.Max(1, real.Actual[id]) {
					records[id].Finish = t
					done[id] = true
					running[pe] = -1
					completed++
				}
			}
			if t >= stepEnd {
				return nil
			}
		}
	}

	err = core.Run(ctx, coloop.Hooks{
		Done: func() bool { return completed >= n },
		Step: step,
		Stalled: func(steps int) error {
			return fmt.Errorf("runtime: %d/%d tasks after %d steps — controller throttled the run to a standstill", completed, n, steps)
		},
		Cancelled: func(cause error) error {
			return fmt.Errorf("runtime: simulation cancelled: %w", cause)
		},
	})
	if err != nil {
		return nil, err
	}
	res.Energy = core.Energy
	res.PerPEEnergy = core.PerPEEnergy
	res.Steps = core.Steps
	res.PeakTempC = core.PeakTempC
	res.AdmissionDenials = gate.Denials()

	for _, r := range records {
		if r.Skipped {
			continue
		}
		res.Executed++
		if r.Finish > res.Makespan {
			res.Makespan = r.Finish
		}
	}
	for _, th := range res.PerPEThrottle {
		res.ThrottleTime += th
	}
	res.DeadlineMet = res.Makespan <= s.Graph.Deadline
	if res.Steps == 0 { // empty graph corner: never stepped, peak is ambient
		res.PeakTempC = model.Config().AmbientC
	}
	return res, nil
}

// Validate cross-checks the realized execution against the schedule
// and the realization it ran under (CheckExecution): every executed
// task ran on its assigned PE without overlap, and every fired
// precedence edge (with bus delay) was honoured. Throttling stretches
// tasks, so durations are only checked to be non-negative.
func (r *Result) Validate(s *sched.Schedule) error {
	return CheckExecution(s, r.Records, r.real)
}
