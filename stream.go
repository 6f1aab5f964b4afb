package thermalsched

import (
	"context"
	"fmt"
	"hash/fnv"

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
	// DT is the co-simulation step in schedule time units (default 1);
	// TimeScale converts one schedule time unit to seconds of transient
	// simulation (default 0.1).
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
	if out.DT == 0 {
		out.DT = 1
	}
	if out.TimeScale == 0 {
		out.TimeScale = 0.1
	}
	if out.MinFactor == 0 {
		out.MinFactor = 1
	}
	if out.Replicas == 0 {
		out.Replicas = 1
	}
	out.SupervisorSpec = out.SupervisorSpec.withDefaults()
	return out
}

// workloadSpec lowers the spec's workload half to the generator's form.
func (s StreamSpec) workloadSpec() scenario.StreamSpec {
	return scenario.StreamSpec{Name: s.Name, Seed: s.Seed, Arrivals: s.Arrivals, Platform: s.Platform}
}

// validate reports the first problem with the stream parameters, as a
// typed field error; prefix is the spec's JSON path ("stream", or
// "campaign.stream" inside a campaign). The nil receiver reports the
// missing spec — the registry's validate hook calls this for every
// FlowStream request.
func (s *StreamSpec) validate(prefix string) error {
	if s == nil {
		return fieldErr(prefix, "a stream request needs a stream spec")
	}
	if err := s.workloadSpec().Validate(); err != nil {
		return fieldErr(prefix, "%v", err)
	}
	n := s.withDefaults()
	if n.DT < 0 || n.TimeScale < 0 {
		return fieldErr(prefix+".dt", "negative stream step (dt %g, timeScale %g)", s.DT, s.TimeScale)
	}
	if !(n.DT > 0) || !(n.TimeScale > 0) {
		return fieldErr(prefix+".dt", "stream step must be positive (dt %g, timeScale %g)", n.DT, n.TimeScale)
	}
	if n.MinFactor < 0 || n.MinFactor > 1 {
		return fieldErr(prefix+".minFactor", "stream MinFactor %g out of (0, 1]", s.MinFactor)
	}
	if n.Replicas < 0 {
		return fieldErr(prefix+".replicas", "negative replica count %d", s.Replicas)
	}
	if n.Replicas > MaxSimulateReplicas {
		return fieldErr(prefix+".replicas", "%d replicas exceed the limit %d", n.Replicas, MaxSimulateReplicas)
	}
	return n.SupervisorSpec.validate(prefix)
}

// fingerprint digests the normalized spec, field by field: the workload
// half reuses the generator's canonical fingerprint (the stream-cache
// key), the dispatch half serializes explicitly. The thermalvet
// fpfields analyzer checks the registration statically.
//
//thermalvet:serializes StreamSpec skip(SupervisorSpec)
//thermalvet:serializes SupervisorSpec
func (s *StreamSpec) fingerprint() string {
	n := s.withDefaults()
	ws := scenario.StreamSpec{Name: n.Name, Seed: n.Seed, Arrivals: n.Arrivals, Platform: n.Platform}
	h := fnv.New64a()
	fmt.Fprintf(h, "streamreq/v3|%s|%g|%g|%g|%d|%d|%g|%g|%g|%g|%g|%g|%g|%g",
		ws.Fingerprint(), n.DT, n.TimeScale, n.MinFactor, n.SimSeed, n.Replicas,
		n.FairC, n.SeriousC, n.CriticalC, n.SeriousScale, n.CriticalScale, n.RetryAfter,
		n.Hysteresis, n.CoolTime)
	return fmt.Sprintf("%016x", h.Sum64())
}

// GenerateStreamWorkload builds the workload described by the spec's
// generation half. It is the typed counterpart of the stream flow's
// input resolution; the same spec always generates an identical trace.
func GenerateStreamWorkload(spec StreamSpec) (*StreamWorkload, error) {
	return scenario.GenerateStream(spec.workloadSpec())
}

// streamFor returns the (possibly cached) workload for a spec.
func (e *Engine) streamFor(spec StreamSpec) (*StreamWorkload, error) {
	ws := spec.workloadSpec()
	if err := ws.Validate(); err != nil {
		return nil, err
	}
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
	// MeanAdmissionDenials is the average number of dispatch attempts
	// the thermal supervisor refused per replica. Omitted for the
	// unsupervised policies, which never deny.
	MeanAdmissionDenials float64 `json:"meanAdmissionDenials,omitempty"`
}

// runStreamFlow resolves the workload, builds its platform substrate
// through the shared cosynth path (thermal-model cache included), and
// fans Replicas seeded online dispatches across the search pool —
// replica i draws its realization from SimSeed + i. Results are
// byte-identical at every parallelism level: replicas land in a slice
// by index and every aggregate is computed in index order.
func (e *Engine) runStreamFlow(ctx context.Context, req *Request) (*Response, error) {
	spec := req.Stream.withDefaults()
	wl, err := e.streamFor(spec)
	if err != nil {
		return nil, err
	}
	policy, err := stream.ParsePolicy(req.Policy)
	if err != nil {
		return nil, err // unreachable after Validate
	}
	bus := req.BusTimePerUnit
	if bus == 0 {
		bus = cosynth.DefaultBusTimePerUnit
	}
	desc := &cosynth.PlatformDesc{TypeNames: wl.PETypeNames, Layout: wl.Layout}
	arch, _, model, _, err := cosynth.BuildPlatformDesc(wl.Lib, bus, *e.thermalFor(req), e.modelProvider(), desc)
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
	results := make([]*stream.Result, spec.Replicas)
	err = e.poolFor(req).Map(spec.Replicas, func(i int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		oracle, err := sched.NewModelOracle(model, arch)
		if err != nil {
			return err
		}
		sup, err := spec.supervisor(policy, spec.DT)
		if err != nil {
			return err
		}
		results[i], err = stream.Run(ctx, stream.Input{
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
		return err
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err != nil {
		return nil, err
	}

	makespans := make([]float64, spec.Replicas)
	peaks := make([]float64, spec.Replicas)
	avgs := make([]float64, spec.Replicas)
	missRates := make([]float64, spec.Replicas)
	responses := make([]float64, spec.Replicas)
	latenesses := make([]float64, spec.Replicas)
	bounds := make([]float64, spec.Replicas)
	prices := make([]float64, spec.Replicas)
	steps, energy, denials := 0, 0.0, 0
	for i, r := range results {
		makespans[i] = r.Makespan
		peaks[i] = r.PeakTempC
		avgs[i] = r.AvgTempC
		missRates[i] = r.MissRate
		responses[i] = r.MeanResponse
		latenesses[i] = r.MaxLateness
		bounds[i] = r.OfflineBound
		prices[i] = r.Price
		steps += r.Steps
		energy += r.Energy
		denials += r.AdmissionDenials
	}
	n := float64(spec.Replicas)
	report := &StreamReport{
		Policy:               policy,
		Replicas:             spec.Replicas,
		Jobs:                 len(wl.Jobs),
		PeriodicJobs:         wl.Periodic,
		AperiodicJobs:        wl.Aperiodic,
		Horizon:              wl.Spec.Arrivals.Horizon,
		PEs:                  len(wl.PETypeNames),
		Makespan:             statsOf(makespans),
		PeakTempC:            statsOf(peaks),
		AvgTempC:             statsOf(avgs),
		MissRate:             statsOf(missRates),
		MeanResponse:         statsOf(responses),
		MaxLateness:          statsOf(latenesses),
		OfflineBound:         statsOf(bounds),
		Price:                statsOf(prices),
		MeanEnergy:           energy / n,
		MeanSteps:            float64(steps) / n,
		MeanAdmissionDenials: float64(denials) / n,
	}
	return &Response{
		Flow:        FlowStream,
		Graph:       wl.Spec.Name,
		Policy:      policy,
		Fingerprint: wl.Fingerprint,
		Stream:      report,
	}, nil
}
