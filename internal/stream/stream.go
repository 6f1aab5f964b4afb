// Package stream is the online-scheduling subsystem: a discrete-event
// dispatcher that advances simulated time over the closed-loop thermal
// co-simulator, releasing independent jobs as they arrive and asking an
// online placement policy where (and implicitly when) each job runs.
//
// The contract separating this package from the offline flows is
// *past knowledge only*: when the policy places a job it can see the
// current thermal state, the set of running jobs and everything that
// already arrived — never future arrivals, future durations, or the
// realized duration of the job being placed (policies reason from WCET;
// the realized duration is revealed only through the completion event).
// The clairvoyant lower bound in offline.go is the yardstick: the
// price-of-onlineness ratio Makespan/OfflineBound is ≥ 1 by
// construction, and how far above 1 a policy sits is what campaigns
// measure, mirroring the competitive-analysis framing of Chrobak et
// al. (arXiv 0801.4238).
//
// Determinism matches the rest of the repository: all randomness (job
// duration factors, the random policy's PE draws) comes from the
// config seed, used verbatim — zero included — so a (workload, config)
// pair always produces byte-identical results.
package stream

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"thermalsched/internal/coloop"
	"thermalsched/internal/dtm"
	"thermalsched/internal/hotspot"
	"thermalsched/internal/sched"
	"thermalsched/internal/techlib"
)

// Job is one independent unit of work released at Arrival with an
// absolute Deadline. Jobs have no precedence constraints — the online
// aperiodic-task model — and must be presented sorted by Arrival with
// IDs equal to their slice index.
type Job struct {
	ID       int
	Type     int
	Arrival  float64
	Deadline float64
}

// Input bundles the workload and platform for one dispatch run.
type Input struct {
	// Jobs is the arrival trace, sorted by Arrival, IDs dense from 0.
	Jobs []Job
	// Lib maps (PE type, task type) to WCET/WCPC.
	Lib *techlib.Library
	// Arch lists the PE instances; each PE's Type indexes Lib.
	Arch sched.Architecture
	// Model is the thermal RC model with one block per PE, by name.
	Model *hotspot.Model
	// Oracle is the incremental influence oracle over Model/Arch;
	// required by PolicyGreedy and PolicyAdmit, ignored by the other
	// policies. It is used exclusively by this run (the oracle is not
	// thread-safe).
	Oracle *sched.ModelOracle
	// Supervisor is the thermal supervisor gating dispatches. Jobs are
	// non-preemptive and always run at nominal speed, so a supervisor
	// acts on the stream purely through admission — refused starts
	// insert idle slack (the zig-zag discipline) rather than stretching
	// running jobs; the throttle factors it computes each step are not
	// applied to running work. PolicyAdmit and PolicyZigzag require a
	// non-nil supervisor; nil disables supervision. Never pass a typed
	// nil pointer: it is a non-nil dtm.Controller to the loop core.
	Supervisor dtm.Supervisor
}

// Config parameterizes one dispatch run.
type Config struct {
	// Policy is one of Policies() (default PolicyGreedy when empty).
	Policy string
	// DT is the co-simulation step in schedule time units: the
	// dispatcher advances by DT, then the thermal model steps once and
	// the new temperatures become visible to the policy — the same
	// one-step sensing delay as internal/runtime.
	DT float64
	// TimeScale converts one schedule time unit into seconds of thermal
	// simulation.
	TimeScale float64
	// MinFactor draws each job's realized duration uniformly from
	// [MinFactor, 1] × WCET, exactly like runtime.Config.MinFactor; 1
	// means every job runs at worst case.
	MinFactor float64
	// Seed drives the duration draws and the random policy, verbatim —
	// zero is an ordinary seed.
	Seed int64
}

// placeSeedSalt decorrelates the random policy's PE draws from the
// duration-factor stream, so both are independent functions of Seed.
const placeSeedSalt int64 = 0x3c6ef372fe94f82b

// Validate reports the first invalid configuration field.
func (c Config) Validate() error {
	if _, err := ParsePolicy(c.Policy); err != nil {
		return err
	}
	if !(c.DT > 0) {
		return fmt.Errorf("stream: step DT must be positive, got %g", c.DT)
	}
	if !(c.TimeScale > 0) {
		return fmt.Errorf("stream: TimeScale must be positive, got %g", c.TimeScale)
	}
	if !(c.MinFactor > 0) || c.MinFactor > 1 {
		return fmt.Errorf("stream: MinFactor %g out of (0, 1]", c.MinFactor)
	}
	return nil
}

// JobRecord is the realized execution of one job.
type JobRecord struct {
	Job    int     `json:"job"`
	PE     int     `json:"pe"`
	Start  float64 `json:"start"`
	Finish float64 `json:"finish"`
}

// Result is the outcome of one online dispatch run.
type Result struct {
	// Records holds the realized executions, indexed by job ID.
	Records []JobRecord
	// Jobs and Missed count the trace and its deadline misses (a miss
	// is a job finishing after its deadline; late jobs still run to
	// completion — lateness, not drop, semantics).
	Jobs, Missed int
	// MissRate is Missed / Jobs.
	MissRate float64
	// Makespan is the last finish time in schedule units.
	Makespan float64
	// MeanResponse averages finish − arrival over all jobs.
	MeanResponse float64
	// MaxLateness is the largest finish − deadline, floored at 0.
	MaxLateness float64
	// Energy is Σ power × busy time; PerPEBusy splits busy time by PE.
	Energy    float64
	PerPEBusy []float64
	// PeakTempC is the hottest block temperature at any step; AvgTempC
	// is the time average of the per-step mean block temperature.
	PeakTempC float64
	AvgTempC  float64
	// Steps is the number of thermal co-simulation steps taken.
	Steps int
	// AdmissionDenials counts the (job, idle capable PE) asks the
	// admission gate refused; zero without a proactive supervisor. An
	// ask of a held PE counts again, so the figure measures supervisor
	// pressure, not distinct holds. Such asks are answered from the
	// hold or counted in bulk, never made, and the count is the same as
	// if each had reached the supervisor.
	AdmissionDenials int
	// OfflineBound is the clairvoyant lower bound on the makespan of
	// any offline schedule of the realized trace; Price is
	// Makespan / OfflineBound, the price-of-onlineness ratio (≥ 1).
	OfflineBound float64
	Price        float64
}

// Run dispatches the arrival trace online under the configured policy.
// Cancelling ctx aborts the stepped loop promptly.
func Run(ctx context.Context, in Input, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	policy, _ := ParsePolicy(cfg.Policy)
	if err := in.Arch.Validate(in.Lib); err != nil {
		return nil, err
	}
	n := len(in.Jobs)
	if n == 0 {
		return nil, fmt.Errorf("stream: empty arrival trace")
	}
	for i, j := range in.Jobs {
		if j.ID != i {
			return nil, fmt.Errorf("stream: job %d carries ID %d (want dense arrival order)", i, j.ID)
		}
		if i > 0 && j.Arrival < in.Jobs[i-1].Arrival {
			return nil, fmt.Errorf("stream: jobs not sorted by arrival at index %d", i)
		}
		if j.Arrival < 0 || math.IsNaN(j.Arrival) || j.Deadline < j.Arrival {
			return nil, fmt.Errorf("stream: job %d has invalid arrival/deadline (%g, %g)", i, j.Arrival, j.Deadline)
		}
	}
	if (policy == PolicyGreedy || policy == PolicyAdmit) && in.Oracle == nil {
		return nil, fmt.Errorf("stream: policy %q needs the influence oracle", policy)
	}
	if (policy == PolicyAdmit || policy == PolicyZigzag) && in.Supervisor == nil {
		return nil, fmt.Errorf("stream: policy %q needs a thermal supervisor", policy)
	}

	// Realized durations: factor_j drawn in job-ID order from the seed,
	// PE-independently — coloop.DrawFactors is the same draw contract as
	// runtime.Realize, so the trace realization never depends on placement
	// decisions and matches the batch realizer variate for variate.
	nPE := len(in.Arch.PEs)
	rng := rand.New(rand.NewSource(cfg.Seed))
	factors := coloop.DrawFactors(rng, n, cfg.MinFactor)
	dur := make([]float64, n*nPE)  // realized duration of job j on PE p
	wcet := make([]float64, n*nPE) // worst-case duration of job j on PE p
	pow := make([]float64, n*nPE)  // nominal power of job j on PE p
	capable := make([]bool, n*nPE) // lib coverage of (p.Type, j.Type)
	var maxWCET float64
	for j, job := range in.Jobs {
		f := factors[j]
		any := false
		for p, pe := range in.Arch.PEs {
			e, ok := in.Lib.Lookup(pe.Type, job.Type)
			if !ok {
				continue
			}
			dur[j*nPE+p] = e.WCET * f
			wcet[j*nPE+p] = e.WCET
			maxWCET = max(maxWCET, e.WCET)
			pow[j*nPE+p] = e.WCPC
			capable[j*nPE+p] = true
			any = true
		}
		if !any {
			return nil, fmt.Errorf("stream: no PE can run job %d (type %d)", j, job.Type)
		}
	}
	polrng := rand.New(rand.NewSource(cfg.Seed ^ placeSeedSalt))

	// PE → thermal block mapping, by name.
	peNames := make([]string, nPE)
	for i, pe := range in.Arch.PEs {
		peNames[i] = pe.Name
	}
	peBlock, err := coloop.PEBlocks(in.Model, peNames)
	if err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}

	// The stall bound: four times the arrival horizon plus every job run
	// back to back on its slowest capable PE.
	serial := 0.0
	for j := range in.Jobs {
		worst := 0.0
		for p := 0; p < nPE; p++ {
			if capable[j*nPE+p] && dur[j*nPE+p] > worst {
				worst = dur[j*nPE+p]
			}
		}
		serial += worst
	}
	maxSteps := 4*int(math.Ceil((in.Jobs[n-1].Arrival+serial)/cfg.DT)) + 4096

	core, err := coloop.New(coloop.Config{
		Model:      in.Model,
		PEBlock:    peBlock,
		DT:         cfg.DT,
		TimeScale:  cfg.TimeScale,
		MaxSteps:   maxSteps,
		Supervisor: in.Supervisor,
	})
	if err != nil {
		return nil, err
	}
	temps := core.Temps // last sensed temperatures (ambient pre-start)

	// The gate forecasts over WCETs (realized durations are future
	// knowledge); it is nil without a supervisor.
	gate, err := core.Gate(maxWCET)
	if err != nil {
		return nil, err
	}

	records := make([]JobRecord, n)
	running := make([]int, nPE) // job on the PE, or -1
	finishAt := make([]float64, nPE)
	curPow := make([]float64, nPE) // nominal power of the running job
	for pe := range running {
		running[pe] = -1
	}
	var pending []int // released, unplaced job IDs

	nb := in.Model.NumBlocks()

	res := &Result{
		Records:   records,
		Jobs:      n,
		PerPEBusy: make([]float64, nPE),
	}

	edf := policy != PolicyFIFO && policy != PolicyRandom

	// Capability depends on the task type alone, so the dispatcher
	// counts idle PEs per type: jobSlot[j] is job j's dense type slot,
	// peSlots[pe] the slots PE pe can run. idleCap[s] counts the idle PEs
	// able to run slot s; openCap[s] those of them not under an
	// admission hold at the current dispatch instant.
	jobSlot := make([]int, n)
	peSlots := make([][]int, nPE)
	slotOf := make(map[int]int)
	for j, job := range in.Jobs {
		s, ok := slotOf[job.Type]
		if !ok {
			s = len(slotOf)
			slotOf[job.Type] = s
			for pe := range peSlots {
				if capable[j*nPE+pe] {
					peSlots[pe] = append(peSlots[pe], s)
				}
			}
		}
		jobSlot[j] = s
	}
	idleCap := make([]int, len(slotOf))
	openCap := make([]int, len(slotOf))
	for pe := range peSlots {
		for _, s := range peSlots[pe] {
			idleCap[s]++
		}
	}
	// pickPE chooses an idle capable PE the gate admits for job j per
	// the policy, or ok=false when none qualifies; a new hold closes its
	// PE. The thermal policies read temps — last step's temperatures,
	// the one-step sensing delay.
	idle := make([]int, 0, nPE)
	pickPE := func(j int, t float64) (int, bool, error) {
		idle = idle[:0]
		for pe := range running {
			if running[pe] >= 0 || !capable[j*nPE+pe] {
				continue
			}
			if ok, armed := gate.Admit(pe, pow[j*nPE+pe], wcet[j*nPE+pe], t); ok {
				idle = append(idle, pe)
			} else if armed {
				for _, s := range peSlots[pe] {
					openCap[s]--
				}
			}
		}
		if len(idle) == 0 {
			return 0, false, nil
		}
		switch policy {
		case PolicyFIFO:
			return idle[0], true, nil
		case PolicyRandom:
			return idle[polrng.Intn(len(idle))], true, nil
		case PolicyCoolest, PolicyZigzag:
			best := idle[0]
			for _, pe := range idle[1:] {
				if temps[peBlock[pe]] < temps[peBlock[best]] {
					best = pe
				}
			}
			return best, true, nil
		case PolicyGreedy, PolicyAdmit:
			// Predicted steady impact of adding the job's power on top
			// of the currently running draw — O(PEs) per candidate via
			// each PE's influence reach.
			if err := in.Oracle.SetBase(curPow); err != nil {
				return 0, false, err
			}
			best, bestDelta := -1, math.Inf(1)
			for _, pe := range idle {
				d, err := in.Oracle.AvgTempDelta(pe, pow[j*nPE+pe])
				if err != nil {
					return 0, false, err
				}
				if d < bestDelta {
					best, bestDelta = pe, d
				}
			}
			return best, true, nil
		}
		return 0, false, fmt.Errorf("stream: unreachable policy %q", policy)
	}

	// dispatch places pending jobs on idle PEs at time t until no
	// further placement is possible. FIFO/random serve strictly in
	// arrival order (head-of-line blocking included); the thermal
	// policies serve in EDF order and may bypass an unplaceable head.
	//
	// A job none of whose capable idle PEs is open — every one is held,
	// or none is idle — is refused by all of them: its asks are counted
	// in O(1) without being made. The supervisor is thus queried at most
	// once per idle PE per hold, not once per pending job × PE.
	dispatch := func(t float64) error {
		copy(openCap, idleCap)
		for _, pe := range gate.Held() {
			if running[pe] < 0 && gate.Expiry(pe) > t {
				for _, s := range peSlots[pe] {
					openCap[s]--
				}
			}
		}
		for len(pending) > 0 {
			placed := -1
			var onPE int
			limit := 1 // FIFO semantics: only the head may be placed
			if edf {
				limit = len(pending)
			}
			for idx := 0; idx < limit; idx++ {
				if s := jobSlot[pending[idx]]; openCap[s] == 0 {
					gate.Deny(idleCap[s])
					continue
				}
				pe, ok, err := pickPE(pending[idx], t)
				if err != nil {
					return err
				}
				if ok {
					placed, onPE = idx, pe
					break
				}
			}
			if placed < 0 {
				return nil
			}
			j := pending[placed]
			pending = append(pending[:placed], pending[placed+1:]...)
			records[j] = JobRecord{Job: j, PE: onPE, Start: t, Finish: t + dur[j*nPE+onPE]}
			running[onPE] = j
			finishAt[onPE] = records[j].Finish
			curPow[onPE] = pow[j*nPE+onPE]
			for _, s := range peSlots[onPE] {
				idleCap[s]--
				openCap[s]--
			}
		}
		return nil
	}

	released, completed := 0, 0
	avgAccum := 0.0

	// Micro event loop inside [now, stepEnd): completions free PEs,
	// arrivals join the pending set, the policy dispatches, time
	// advances to the next event. Temperatures are frozen for the
	// step, exactly as in internal/runtime.
	step := func(now, stepEnd float64) error {
		t := now
		for {
			for pe, j := range running {
				if j >= 0 && finishAt[pe] <= t {
					running[pe] = -1
					curPow[pe] = 0
					completed++
					for _, s := range peSlots[pe] {
						idleCap[s]++
					}
				}
			}
			grew := false
			for released < n && in.Jobs[released].Arrival <= t {
				pending = append(pending, released)
				released++
				grew = true
			}
			if grew && edf {
				sort.Slice(pending, func(a, b int) bool {
					da, db := in.Jobs[pending[a]].Deadline, in.Jobs[pending[b]].Deadline
					if da != db {
						return da < db
					}
					return pending[a] < pending[b]
				})
			}
			if err := dispatch(t); err != nil {
				return err
			}

			event := stepEnd
			if released < n && in.Jobs[released].Arrival < event {
				event = in.Jobs[released].Arrival
			}
			for pe, j := range running {
				if j >= 0 && finishAt[pe] < event {
					event = finishAt[pe]
				}
			}
			if dt := event - t; dt > 0 {
				for pe, j := range running {
					if j >= 0 {
						core.StepEnergy[pe] += curPow[pe] * dt
						res.PerPEBusy[pe] += dt
					}
				}
			}
			t = event
			if t >= stepEnd {
				break
			}
		}
		return nil
	}

	err = core.Run(ctx, coloop.Hooks{
		Done: func() bool { return completed >= n },
		Step: step,
		Observe: func(temps []float64) {
			mean := 0.0
			for _, tc := range temps {
				mean += tc
			}
			avgAccum += mean / float64(nb)
		},
		Stalled: func(steps int) error {
			return fmt.Errorf("stream: %d/%d jobs after %d steps", completed, n, steps)
		},
		Cancelled: func(cause error) error {
			return fmt.Errorf("stream: dispatch cancelled: %w", cause)
		},
	})
	if err != nil {
		return nil, err
	}
	res.Energy = core.Energy
	res.Steps = core.Steps
	res.PeakTempC = core.PeakTempC
	res.AdmissionDenials = gate.Denials()

	res.AvgTempC = avgAccum / float64(res.Steps)
	sumResp := 0.0
	for j, rec := range records {
		if rec.Finish > res.Makespan {
			res.Makespan = rec.Finish
		}
		sumResp += rec.Finish - in.Jobs[j].Arrival
		if late := rec.Finish - in.Jobs[j].Deadline; late > 0 {
			res.Missed++
			if late > res.MaxLateness {
				res.MaxLateness = late
			}
		}
	}
	res.MissRate = float64(res.Missed) / float64(n)
	res.MeanResponse = sumResp / float64(n)
	res.OfflineBound = clairvoyantBound(in.Jobs, dur, capable, nPE)
	res.Price = 1
	if res.OfflineBound > 0 {
		res.Price = res.Makespan / res.OfflineBound
		if res.Price < 1 { // bound proof guarantees ≥ 1; clamp rounding dust
			res.Price = 1
		}
	}
	return res, nil
}
