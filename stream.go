package thermalsched

import (
	"cmp"
	"context"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/scenario"
	"thermalsched/internal/sched"
	"thermalsched/internal/stream"
)

// Online-workload types. A StreamSpec describes a seeded arrival trace
// (periodic sources plus a Poisson/bursty aperiodic process) over a
// generated platform, dispatched online — placement decided with past
// knowledge only — against live thermal state; see Request.Stream and
// FlowStream.
type (
	// StreamArrivalParams parameterizes the arrival process; zero
	// values take the documented defaults.
	StreamArrivalParams = scenario.ArrivalParams
	// StreamWorkload is a fully generated arrival trace plus its
	// library and platform description.
	StreamWorkload = scenario.StreamWorkload
	// StreamJob is one released job of a stream workload.
	StreamJob = scenario.StreamJob
)

// Online policy names accepted by Request.Policy on FlowStream.
const (
	StreamPolicyFIFO    = stream.PolicyFIFO
	StreamPolicyRandom  = stream.PolicyRandom
	StreamPolicyCoolest = stream.PolicyCoolest
	StreamPolicyGreedy  = stream.PolicyGreedy
	// StreamPolicyAdmit is PolicyGreedy gated by predictive admission
	// control; StreamPolicyZigzag is PolicyCoolest gated by forced
	// idle-slack cooling gaps. Both build their thermal supervisor from
	// the stream spec's ladder knobs.
	StreamPolicyAdmit  = stream.PolicyAdmit
	StreamPolicyZigzag = stream.PolicyZigzag
)

// StreamPolicies lists the online policy names in canonical order.
func StreamPolicies() []string { return stream.Policies() }

// StreamSpec parameterizes the FlowStream online run: the workload half
// (Name/Seed/Arrivals/Platform, lowered to scenario.StreamSpec and
// cached by fingerprint like scenarios are) plus the dispatch half
// (step sizes, realized-duration spread, Monte-Carlo replication). The
// zero value plus a seed is a valid spec; the seed contract is
// verbatim — zero included — for both Seed and SimSeed.
type StreamSpec struct {
	// Name names the generated workload (default "stream").
	Name string `json:"name,omitempty"`
	// Seed drives the workload generation (arrival trace, library,
	// platform), verbatim.
	Seed int64 `json:"seed"`
	// Arrivals parameterizes the arrival process; Platform the
	// generated platform (defaults documented in internal/scenario).
	Arrivals StreamArrivalParams    `json:"arrivals,omitempty"`
	Platform ScenarioPlatformParams `json:"platform,omitempty"`
	// DT is the co-simulation step in schedule time units (default 1).
	// It is also the sensing period: every controller reads the
	// temperatures and acts once per DT, so a controlled result holds at
	// the DT it was run at. TimeScale converts one schedule time unit to
	// seconds of transient simulation (default 0.1).
	DT        float64 `json:"dt,omitempty"`
	TimeScale float64 `json:"timeScale,omitempty"`
	// MinFactor draws each job's realized duration uniformly from
	// [MinFactor, 1] × WCET (default 1: worst case).
	MinFactor float64 `json:"minFactor,omitempty"`
	// SimSeed drives replica 0's duration factors and random-policy
	// draws (replica i uses SimSeed + i), verbatim.
	SimSeed int64 `json:"simSeed,omitempty"`
	// Replicas is the number of seeded Monte-Carlo dispatch runs to fan
	// across the engine's search pool (default 1, at most
	// MaxSimulateReplicas).
	Replicas int `json:"replicas,omitempty"`
	// SupervisorSpec holds the thermal-supervisor knobs, consumed by
	// the admit and zigzag policies; the other policies never build a
	// supervisor.
	SupervisorSpec
}

func (s *StreamSpec) withDefaults() StreamSpec {
	out := StreamSpec{}
	if s != nil {
		out = *s
	}
	out.DT = cmp.Or(out.DT, 1)
	out.TimeScale = cmp.Or(out.TimeScale, 0.1)
	out.MinFactor = cmp.Or(out.MinFactor, 1)
	out.Replicas = cmp.Or(out.Replicas, 1)
	out.SupervisorSpec = out.SupervisorSpec.withDefaults()
	// The workload half normalizes as the generator does, so a zero
	// field and its explicit default are one request.
	w := out.workloadSpec().Normalized()
	out.Name, out.Arrivals, out.Platform = w.Name, w.Arrivals, w.Platform
	return out
}

// workloadSpec lowers the spec's workload half to the generator's form.
func (s StreamSpec) workloadSpec() scenario.StreamSpec {
	return scenario.StreamSpec{Name: s.Name, Seed: s.Seed, Arrivals: s.Arrivals, Platform: s.Platform}
}

// validate reports the first problem with the stream parameters, as a
// typed field error; prefix is the spec's JSON path ("stream", or
// "campaign.stream" inside a campaign). Call on a withDefaults() copy.
// The nil receiver reports the missing spec — the registry's validate
// hook calls this for every FlowStream request.
func (s *StreamSpec) validate(prefix string) error {
	if s == nil {
		return fieldErr(prefix, "a stream request needs a stream spec")
	}
	if err := s.workloadSpec().Validate(); err != nil {
		return fieldErr(prefix, "%v", err)
	}
	if err := checkLoop(prefix, s.DT, s.TimeScale, s.MinFactor, s.Replicas); err != nil {
		return err
	}
	return s.SupervisorSpec.validate(prefix, s.DT)
}

// GenerateStreamWorkload builds the workload described by the spec's
// generation half. It is the typed counterpart of the stream flow's
// input resolution; the same spec always generates an identical trace.
func GenerateStreamWorkload(spec StreamSpec) (*StreamWorkload, error) {
	return scenario.GenerateStream(spec.workloadSpec())
}

// streamFor returns the (possibly cached) workload for a spec, a
// checked request's key: Check generates nothing, so a workload is
// generated here, when the flow runs (GenerateStream checks it again).
func (e *Engine) streamFor(spec StreamSpec) (*StreamWorkload, error) {
	ws := spec.workloadSpec()
	fp := ws.Fingerprint()
	if wl, ok := e.streams.Get(fp); ok {
		return wl, nil
	}
	wl, err := scenario.GenerateStream(ws)
	if err != nil {
		return nil, err
	}
	e.streams.Put(fp, wl)
	return wl, nil
}

// StreamCacheStats reports the generated-workload cache's hit/miss
// counters and current size, for observability and tests.
func (e *Engine) StreamCacheStats() (hits, misses uint64, size int) {
	return e.streams.Stats()
}

// StreamReport is the FlowStream payload: the workload's realized
// shape plus per-replica percentile statistics of the online dispatch,
// including the price-of-onlineness ratio against the clairvoyant
// offline bound of each realized trace (≥ 1 by construction).
type StreamReport struct {
	// Policy is the resolved online policy; Replicas the Monte-Carlo
	// fan-out width.
	Policy   string `json:"policy"`
	Replicas int    `json:"replicas"`
	// Jobs splits into PeriodicJobs + AperiodicJobs; Horizon is the
	// arrival window; PEs the platform size.
	Jobs          int     `json:"jobs"`
	PeriodicJobs  int     `json:"periodicJobs"`
	AperiodicJobs int     `json:"aperiodicJobs"`
	Horizon       float64 `json:"horizon"`
	PEs           int     `json:"pes"`
	// Replica statistics: realized makespan and thermal envelope,
	// deadline-miss rate, responsiveness, and the clairvoyant bound
	// with its price ratio.
	Makespan     Stats `json:"makespan"`
	PeakTempC    Stats `json:"peakTempC"`
	AvgTempC     Stats `json:"avgTempC"`
	MissRate     Stats `json:"missRate"`
	MeanResponse Stats `json:"meanResponse"`
	MaxLateness  Stats `json:"maxLateness"`
	OfflineBound Stats `json:"offlineBound"`
	Price        Stats `json:"price"`
	// MeanEnergy and MeanSteps average delivered energy and thermal
	// steps per replica.
	MeanEnergy float64 `json:"meanEnergy"`
	MeanSteps  float64 `json:"meanSteps"`
	// MeanAdmissionDenials is the average number of refused (job, idle
	// capable PE) admission asks per replica. Every ask counts, also
	// one the gate answers from a hold and the bulk count for a job
	// whose capable PEs are all held, so the figure measures supervisor
	// pressure, not supervisor queries. Omitted for the unsupervised
	// policies, which never deny.
	MeanAdmissionDenials float64 `json:"meanAdmissionDenials,omitempty"`
}

// runStreamFlow resolves the workload, builds its platform substrate
// through the shared cosynth path (thermal-model cache included), and
// fans Replicas seeded online dispatches across the search pool —
// replica i draws its realization from SimSeed + i.
func (e *Engine) runStreamFlow(ctx context.Context, c *Checked) (*Response, error) {
	req := &c.req
	spec, policy := *req.Stream, req.Policy
	wl, err := e.streamFor(spec)
	if err != nil {
		return nil, err
	}
	desc := &cosynth.PlatformDesc{TypeNames: wl.PETypeNames, Layout: wl.Layout}
	arch, _, model, _, err := cosynth.BuildPlatformDesc(wl.Lib, req.BusTimePerUnit, e.thermal, e.modelProvider(), desc)
	if err != nil {
		return nil, err
	}
	jobs := make([]stream.Job, len(wl.Jobs))
	for i, j := range wl.Jobs {
		jobs[i] = stream.Job{ID: j.ID, Type: j.Type, Arrival: j.Arrival, Deadline: j.Deadline}
	}

	// Each replica gets its own influence oracle and supervisor: both
	// are incremental state, not safe for concurrent use, and oracle
	// rows are built lazily so unused policies pay nothing.
	results, err := runReplicas(ctx, e.poolFor(c), spec.Replicas, func(i int) (*stream.Result, error) {
		oracle, err := sched.NewModelOracle(model, arch)
		if err != nil {
			return nil, err
		}
		sup, err := spec.supervisor(policy, spec.DT)
		if err != nil {
			return nil, err
		}
		return stream.Run(ctx, stream.Input{
			Jobs:       jobs,
			Lib:        wl.Lib,
			Arch:       arch,
			Model:      model,
			Oracle:     oracle,
			Supervisor: sup,
		}, stream.Config{
			Policy:    policy,
			DT:        spec.DT,
			TimeScale: spec.TimeScale,
			MinFactor: spec.MinFactor,
			Seed:      spec.SimSeed + int64(i),
		})
	})
	if err != nil {
		return nil, err
	}

	report := &StreamReport{
		Policy:               policy,
		Replicas:             spec.Replicas,
		Jobs:                 len(wl.Jobs),
		PeriodicJobs:         wl.Periodic,
		AperiodicJobs:        wl.Aperiodic,
		Horizon:              wl.Spec.Arrivals.Horizon,
		PEs:                  len(wl.PETypeNames),
		Makespan:             replicaStats(results, func(r *stream.Result) float64 { return r.Makespan }),
		PeakTempC:            replicaStats(results, func(r *stream.Result) float64 { return r.PeakTempC }),
		AvgTempC:             replicaStats(results, func(r *stream.Result) float64 { return r.AvgTempC }),
		MissRate:             replicaStats(results, func(r *stream.Result) float64 { return r.MissRate }),
		MeanResponse:         replicaStats(results, func(r *stream.Result) float64 { return r.MeanResponse }),
		MaxLateness:          replicaStats(results, func(r *stream.Result) float64 { return r.MaxLateness }),
		OfflineBound:         replicaStats(results, func(r *stream.Result) float64 { return r.OfflineBound }),
		Price:                replicaStats(results, func(r *stream.Result) float64 { return r.Price }),
		MeanEnergy:           replicaMean(results, func(r *stream.Result) float64 { return r.Energy }),
		MeanSteps:            replicaMean(results, func(r *stream.Result) float64 { return float64(r.Steps) }),
		MeanAdmissionDenials: replicaMean(results, func(r *stream.Result) float64 { return float64(r.AdmissionDenials) }),
	}
	return &Response{
		Flow:        FlowStream,
		Graph:       wl.Spec.Name,
		Policy:      policy,
		Fingerprint: wl.Fingerprint,
		Stream:      report,
	}, nil
}
