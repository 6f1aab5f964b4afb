package sched

import (
	"context"
	"fmt"
	"math"

	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// AllocateAndSchedule runs the ASP: it maps every task of g onto a PE of
// arch and fixes its start time, using the DC selection rule
//
//	DC(task i, PE j) = SC(i) − WCET(i,j) − max(avail(j), ready(i,j)) − term
//
// where term is the policy's power or temperature penalty. At every step
// the (ready task, PE) pair with the highest DC is committed, exactly the
// greedy loop of Xie & Wolf's ASP with the paper's extra term.
//
// It is Prepare followed by Prepared.Schedule; callers that schedule
// one architecture under several configurations prepare it once.
func AllocateAndSchedule(ctx context.Context, g *taskgraph.Graph, arch Architecture, lib *techlib.Library, cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	p, err := Prepare(g, arch, lib)
	if err != nil {
		return nil, err
	}
	return p.Schedule(ctx, cfg)
}

// Prepared is one (graph, architecture, library) triple, validated and
// reduced to what every ASP run on it reads: the static criticality and
// the library row of every (task, PE) pair. It is read-only once built,
// so schedules under any number of configurations, concurrent ones
// included, may run from one Prepared.
type Prepared struct {
	g       *taskgraph.Graph
	arch    Architecture
	lib     *techlib.Library
	sc      []float64
	entries []techlib.Entry // entries[task*len(arch.PEs)+pe]
	entryOK []bool
}

// Prepare validates g, lib and arch and computes what the ASP reads of
// them under every policy.
func Prepare(g *taskgraph.Graph, arch Architecture, lib *techlib.Library) (*Prepared, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	if err := arch.Validate(lib); err != nil {
		return nil, err
	}

	// Static criticality: longest path to the end of the graph, weighting
	// each task with its mean WCET over the library and each edge with
	// its bus transfer time (zero when communication is not modelled).
	sc := g.StaticCriticality(func(t taskgraph.Task) float64 {
		v, _ := lib.MeanWCET(t.Type) // 0 for a type no PE type runs; SC stays conservative
		return v
	}, func(e taskgraph.Edge) float64 {
		return e.Data * arch.BusTimePerUnit
	})

	n, nPE := g.NumTasks(), len(arch.PEs)
	p := &Prepared{
		g: g, arch: arch, lib: lib, sc: sc,
		entries: make([]techlib.Entry, n*nPE),
		entryOK: make([]bool, n*nPE),
	}
	for task := 0; task < n; task++ {
		for pe := 0; pe < nPE; pe++ {
			p.entries[task*nPE+pe], p.entryOK[task*nPE+pe] = lib.Lookup(arch.PEs[pe].Type, g.Task(task).Type)
		}
	}
	return p, nil
}

// Schedule runs the ASP (see AllocateAndSchedule) under cfg.
//
// The returned schedule may miss the deadline; callers (co-synthesis)
// check MeetsDeadline and react. Scheduling only fails on structural
// problems: an invalid cfg or a task no PE of the architecture can run.
//
// The greedy loop checks ctx before every task commitment (each step
// of a thermal-aware run issues tasks×PEs thermal inquiries, so this is
// the natural abort granularity) and returns a ctx-wrapping error
// promptly after cancellation.
func (p *Prepared) Schedule(ctx context.Context, cfg Config) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, arch, sc, entries, entryOK := p.g, p.arch, p.sc, p.entries, p.entryOK
	n := g.NumTasks()
	nPE := len(arch.PEs)
	assignments := make([]Assignment, n)
	// remaining[task] counts the task's unscheduled predecessors, and
	// is -1 once the task itself is scheduled.
	remaining := make([]int32, n)
	for id := range remaining {
		remaining[id] = int32(g.InDegree(id))
	}
	peAvail := make([]float64, nPE)
	peEnergy := make([]float64, nPE)
	scheduledCount := 0

	// Thermal-inquiry machinery, hoisted out of the candidate loop: each
	// greedy step solves the shared base power once, and every
	// candidate is answered with an O(PEs) delta update.
	horizon := cfg.ThermalHorizon
	if horizon <= 0 {
		horizon = DefaultThermalHorizon
	}
	var basePower []float64
	if cfg.Policy == ThermalAware {
		basePower = make([]float64, nPE)
	}

	// ready(i, j): earliest time task i's inputs, over its predecessor
	// edges preds, are available on PE j.
	readyOn := func(preds []taskgraph.Edge, pe int) float64 {
		t := 0.0
		for _, e := range preds {
			// By pointer, not by copy: a copied Assignment goes through
			// a stack slot, and whether its 16-byte stores forward to
			// the loads below depends on the frame's alignment — a
			// ~25% swing of the whole ASP from unrelated frame changes.
			p := &assignments[e.From]
			r := p.Finish
			if p.PE != pe {
				r += e.Data * arch.BusTimePerUnit
			}
			if r > t {
				t = r
			}
		}
		return t
	}

	// term computes the policy's DC penalty for a candidate.
	term := func(task, pe int, entry techlib.Entry, finish float64) (float64, error) {
		switch cfg.Policy {
		case Baseline:
			return 0, nil
		case MinTaskPower:
			return cfg.PowerWeight * entry.WCPC, nil
		case MinPEPower:
			// Cumulative average power of the PE if this task lands there.
			return cfg.PowerWeight * (peEnergy[pe] + entry.Energy()) / finish, nil
		case MinTaskEnergy:
			return cfg.EnergyWeight * entry.Energy(), nil
		case ThermalAware:
			// Paper §2.2: "pass the cumulating power consumptions of each
			// PE along with the consuming power incurred by current
			// scheduled task to the HotSpot", then average the returned
			// temperatures. Cumulated energies are converted to power
			// over a fixed horizon (normalizing by the candidate's finish
			// time would let the scheduler "cool" the die by stretching
			// the schedule); the candidate task contributes its full
			// execution power on the candidate PE, so an inquiry sees the
			// heat of running this task *now* on top of that PE's
			// history — which is what makes hot-on-hot placements
			// expensive and yields thermal balance. The base
			// (peEnergy/horizon) is fixed per greedy step; this
			// candidate only adds the task's power on its PE.
			avg, err := cfg.Oracle.AvgTempDelta(pe, entry.Energy()/horizon+entry.WCPC)
			if err != nil {
				return 0, fmt.Errorf("sched: thermal inquiry for task %d on PE %q: %w",
					task, arch.PEs[pe].Name, err)
			}
			return cfg.TempWeight * avg, nil
		default:
			return 0, fmt.Errorf("sched: unknown policy %d", int(cfg.Policy))
		}
	}

	for scheduledCount < n {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("sched: cancelled with %d/%d tasks scheduled: %w",
				scheduledCount, n, err)
		}
		if basePower != nil {
			// One steady-state solve for the step's shared base power;
			// the candidate loop below only pays per-candidate deltas.
			for j := range basePower {
				basePower[j] = peEnergy[j] / horizon
			}
			if err := cfg.Oracle.SetBase(basePower); err != nil {
				return nil, fmt.Errorf("sched: thermal inquiry base: %w", err)
			}
		}
		bestTask, bestPE := -1, -1
		bestDC := math.Inf(-1)
		var bestStart, bestFinish, bestPower float64
		progress := false
		for task := 0; task < n; task++ {
			if remaining[task] != 0 {
				continue
			}
			preds := g.Predecessors(task) // hoisted out of the candidate loop
			runnableSomewhere := false
			for pe := 0; pe < nPE; pe++ {
				entry, ok := entries[task*nPE+pe], entryOK[task*nPE+pe]
				if !ok {
					continue
				}
				runnableSomewhere = true
				ready := readyOn(preds, pe)
				start := math.Max(peAvail[pe], ready)
				finish := start + entry.WCET
				penalty, err := term(task, pe, entry, finish)
				if err != nil {
					return nil, err
				}
				dc := sc[task] - entry.WCET - start - penalty
				if dc > bestDC {
					bestDC, bestTask, bestPE = dc, task, pe
					bestStart, bestFinish, bestPower = start, finish, entry.WCPC
				}
			}
			if !runnableSomewhere {
				return nil, fmt.Errorf("sched: task %d (type %d) runnable on no PE of %q",
					task, g.Task(task).Type, arch.Name)
			}
			progress = true
		}
		if !progress || bestTask < 0 {
			return nil, fmt.Errorf("sched: no ready task found with %d/%d scheduled (cycle?)",
				scheduledCount, n)
		}
		assignments[bestTask] = Assignment{
			Task: bestTask, PE: bestPE,
			Start: bestStart, Finish: bestFinish, Power: bestPower,
		}
		remaining[bestTask] = -1
		scheduledCount++
		peAvail[bestPE] = bestFinish
		peEnergy[bestPE] += (bestFinish - bestStart) * bestPower
		for _, e := range g.Successors(bestTask) {
			remaining[e.To]--
		}
	}

	makespan := 0.0
	for _, a := range assignments {
		if a.Finish > makespan {
			makespan = a.Finish
		}
	}
	return &Schedule{
		Graph:       g,
		Arch:        arch,
		Lib:         p.lib,
		Assignments: assignments,
		Makespan:    makespan,
	}, nil
}
