package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"thermalsched/internal/techlib"
)

// ArrivalParams parameterizes the arrival process of a stream scenario:
// a set of strictly periodic sources plus an aperiodic Poisson process
// with optional bursts. Zero values mean the documented defaults.
type ArrivalParams struct {
	// Horizon is the arrival window in schedule time units: no job
	// arrives at or after it (default 600). Execution may run past the
	// horizon; only arrivals stop.
	Horizon float64 `json:"horizon,omitempty"`
	// Sources is the number of periodic sources (default 3). Each
	// source draws a period uniformly from [MinPeriod, MaxPeriod], a
	// phase uniformly from [0, period) and a fixed task type, then
	// releases one job per period with an implicit deadline (the next
	// release).
	Sources int `json:"sources,omitempty"`
	// MinPeriod and MaxPeriod bound the periodic sources' periods
	// (defaults 60 and 150 schedule time units).
	MinPeriod float64 `json:"minPeriod,omitempty"`
	MaxPeriod float64 `json:"maxPeriod,omitempty"`
	// Rate is the aperiodic Poisson arrival rate in bursts per schedule
	// time unit (default 0.05). Zero with Sources > 0 disables the
	// aperiodic stream entirely.
	Rate float64 `json:"rate,omitempty"`
	// BurstMean is the mean geometric burst size: every Poisson arrival
	// brings followers with probability 1-1/BurstMean each (default 1 —
	// no bursts). Followers land BurstGap apart.
	BurstMean float64 `json:"burstMean,omitempty"`
	// BurstGap is the spacing between jobs of one burst (default 2).
	BurstGap float64 `json:"burstGap,omitempty"`
	// Laxity scales aperiodic deadlines: an aperiodic job's relative
	// deadline is Laxity × its type's mean WCET (default 4; smaller is
	// tighter).
	Laxity float64 `json:"laxity,omitempty"`
	// Types is the number of distinct task types jobs draw from
	// (default 8, the standard library's universe).
	Types int `json:"types,omitempty"`
}

// StreamSpec is the JSON-serializable description of one stream
// scenario: the arrival process plus the platform it runs on. Like
// Spec, it is pure data — the same normalized StreamSpec always
// generates the same workload, keyed by Fingerprint — and the seed
// contract is identical: Seed is used verbatim, zero included.
type StreamSpec struct {
	// Name names the generated workload (default "stream").
	Name string `json:"name,omitempty"`
	// Seed drives every random draw of the generation. It is used
	// verbatim: zero is a valid seed and is never rewritten.
	Seed     int64          `json:"seed"`
	Arrivals ArrivalParams  `json:"arrivals"`
	Platform PlatformParams `json:"platform"`
}

// StreamJob is one released job of a stream workload. Jobs are
// independent (no precedence): the online scheduling literature's
// aperiodic-task model, where each arrival is a complete unit of work
// with its own deadline.
type StreamJob struct {
	// ID indexes the job in arrival order (ties broken by generation
	// order: periodic sources first, then the aperiodic stream).
	ID int `json:"id"`
	// Source is the periodic source index, or -1 for aperiodic jobs.
	Source int `json:"source"`
	// Type is the technology-library task type.
	Type int `json:"type"`
	// Arrival and Deadline are absolute schedule times. The dispatcher
	// may not act on the job before Arrival; finishing after Deadline
	// is a deadline miss.
	Arrival  float64 `json:"arrival"`
	Deadline float64 `json:"deadline"`
}

// StreamWorkload is one generated stream scenario: the realized arrival
// trace plus the library and platform description the stream flow needs
// to instantiate it — the streaming counterpart of Scenario.
type StreamWorkload struct {
	// Spec is the normalized spec the workload was generated from.
	Spec StreamSpec
	// Fingerprint is Spec.Fingerprint(), precomputed.
	Fingerprint string
	// Jobs is the arrival trace, sorted by (Arrival, generation order)
	// with IDs assigned after the sort.
	Jobs []StreamJob
	// Periodic and Aperiodic count the jobs of each class.
	Periodic, Aperiodic int
	// Lib is the generated technology library (one PE type per platform
	// instance, full coverage).
	Lib *techlib.Library
	// PETypeNames lists the library type of each PE instance.
	PETypeNames []string
	// Layout is the floorplan arrangement (LayoutGrid or LayoutRow).
	Layout string
}

// Stream generation limits: like MaxTasks/MaxPEs these guard the
// service tier from a single spec monopolizing the process. Validate
// rejects specs whose *expected* job count exceeds MaxStreamJobs/2;
// generation additionally hard-truncates the (random-length) aperiodic
// stream at MaxStreamJobs, deterministically.
const (
	MaxStreamJobs    = 20000
	MaxStreamHorizon = 1e6
)

// arrivalSeedSalt decorrelates the arrival generator's seed stream from
// the platform generator's (which uses platformSeedSalt), so the same
// seed draws independent arrival and platform randomness.
const arrivalSeedSalt int64 = 0x6a09e667f3bcc908

// Normalized returns the stream spec with every defaulted field filled
// in. Fingerprints and generation both operate on the normalized form.
func (s StreamSpec) Normalized() StreamSpec {
	if s.Name == "" {
		s.Name = "stream"
	}
	a := &s.Arrivals
	if a.Horizon == 0 {
		a.Horizon = 600
	}
	if a.Sources == 0 {
		a.Sources = 3
	}
	if a.MinPeriod == 0 {
		a.MinPeriod = 60
	}
	if a.MaxPeriod == 0 {
		a.MaxPeriod = 150
	}
	if a.Rate == 0 {
		a.Rate = 0.05
	}
	if a.BurstMean == 0 {
		a.BurstMean = 1
	}
	if a.BurstGap == 0 {
		a.BurstGap = 2
	}
	if a.Laxity == 0 {
		a.Laxity = 4
	}
	if a.Types == 0 {
		a.Types = 8
	}
	// Stream defaults aim for moderate load (~0.6 utilization on the
	// default 4-PE platform): with the default arrival process, mean
	// work 30 leaves slack for the online policies to differentiate
	// instead of uniformly drowning in an overload.
	s.Platform = s.Platform.normalized(30)
	return s
}

// Validate reports the first problem that makes the normalized stream
// spec ungeneratable.
func (s StreamSpec) Validate() error {
	n := s.Normalized()
	a := n.Arrivals
	switch {
	case !(a.Horizon > 0) || a.Horizon > MaxStreamHorizon:
		return fmt.Errorf("scenario: stream horizon %g out of (0, %g]", a.Horizon, float64(MaxStreamHorizon))
	case a.Sources < 0:
		return fmt.Errorf("scenario: negative periodic source count %d", a.Sources)
	case !(a.MinPeriod > 0) || a.MaxPeriod < a.MinPeriod:
		return fmt.Errorf("scenario: stream period range [%g, %g] invalid", a.MinPeriod, a.MaxPeriod)
	case a.Rate < 0:
		return fmt.Errorf("scenario: negative aperiodic rate %g", a.Rate)
	case a.Sources == 0 && a.Rate == 0:
		return fmt.Errorf("scenario: stream spec has no arrival process (zero sources and zero rate)")
	case a.BurstMean < 1:
		return fmt.Errorf("scenario: burst mean %g must be at least 1", a.BurstMean)
	case !(a.BurstGap > 0):
		return fmt.Errorf("scenario: burst gap %g must be positive", a.BurstGap)
	case !(a.Laxity > 0):
		return fmt.Errorf("scenario: laxity %g must be positive", a.Laxity)
	case a.Types < 1:
		return fmt.Errorf("scenario: stream task types %d must be at least 1", a.Types)
	}
	expected := float64(a.Sources)*(a.Horizon/a.MinPeriod+1) + a.Rate*a.Horizon*a.BurstMean
	if expected > MaxStreamJobs/2 {
		return fmt.Errorf("scenario: stream spec expects ~%.0f jobs, over the %d cap", expected, MaxStreamJobs/2)
	}
	return n.Platform.validate()
}

// Fingerprint returns a stable hex digest of the normalized stream
// spec, serialized field by field like Spec.Fingerprint. The thermalvet
// fpfields analyzer checks the registrations below statically.
//
//thermalvet:serializes StreamSpec
//thermalvet:serializes ArrivalParams
func (s StreamSpec) Fingerprint() string {
	n := s.Normalized()
	h := fnv.New64a()
	fmt.Fprintf(h, "stream/v1|%s|%d|", n.Name, n.Seed)
	a := n.Arrivals
	fmt.Fprintf(h, "%g|%d|%g|%g|%g|%g|%g|%g|%d|", a.Horizon, a.Sources, a.MinPeriod,
		a.MaxPeriod, a.Rate, a.BurstMean, a.BurstGap, a.Laxity, a.Types)
	p := n.Platform
	fmt.Fprintf(h, "%d|%g|%g|%g|%g|%g|%s", p.PEs, p.MinSpeed, p.MaxSpeed,
		p.MeanWork, p.MeanPower, p.Noise, p.Layout)
	return fmt.Sprintf("%016x", h.Sum64())
}

// GenerateStream builds the stream workload described by the spec. The
// same spec (after normalization) always returns an identical workload:
// the arrival trace, library and platform are all drawn from the spec's
// seed, verbatim.
func GenerateStream(spec StreamSpec) (*StreamWorkload, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Normalized()
	lib, typeNames, err := generatePlatform(n.Seed, n.Arrivals.Types, n.Platform)
	if err != nil {
		return nil, err
	}
	a := n.Arrivals
	rng := rngFor(n.Seed ^ arrivalSeedSalt)

	var jobs []StreamJob
	periodic := 0
	// Periodic sources: one fixed task type each, implicit deadlines.
	for src := 0; src < a.Sources; src++ {
		period := a.MinPeriod + rng.Float64()*(a.MaxPeriod-a.MinPeriod)
		phase := rng.Float64() * period
		typ := rng.Intn(a.Types)
		for t := phase; t < a.Horizon; t += period {
			jobs = append(jobs, StreamJob{Source: src, Type: typ, Arrival: t, Deadline: t + period})
			periodic++
		}
	}
	// Aperiodic stream: Poisson burst arrivals, geometric burst sizes,
	// laxity-scaled deadlines. Draws happen in a fixed order (gap, then
	// per-job type, then the burst-continuation coin) so the trace is a
	// pure function of the seed.
	if a.Rate > 0 {
		cont := 0.0
		if a.BurstMean > 1 {
			cont = 1 - 1/a.BurstMean
		}
		t := 0.0
		for len(jobs) < MaxStreamJobs {
			t += rng.ExpFloat64() / a.Rate
			if t >= a.Horizon {
				break
			}
			for k := 0; len(jobs) < MaxStreamJobs; k++ {
				at := t + float64(k)*a.BurstGap
				if at >= a.Horizon {
					break
				}
				typ := rng.Intn(a.Types)
				mean, err := lib.MeanWCET(typ)
				if err != nil {
					return nil, fmt.Errorf("scenario: stream deadline: %w", err)
				}
				jobs = append(jobs, StreamJob{Source: -1, Type: typ, Arrival: at, Deadline: at + a.Laxity*mean})
				if cont == 0 || rng.Float64() >= cont {
					break
				}
			}
		}
	}

	// Arrival order with generation order as the (stable) tie-break,
	// then IDs in final order: downstream consumers can treat job ID as
	// the canonical deterministic ordering.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	for i := range jobs {
		jobs[i].ID = i
		// Guard against float drift producing a deadline before the
		// arrival (cannot happen with the validated parameter ranges,
		// but a malformed deadline would poison miss accounting).
		if jobs[i].Deadline < jobs[i].Arrival {
			jobs[i].Deadline = jobs[i].Arrival
		}
	}
	if math.IsNaN(a.Horizon) || len(jobs) == 0 {
		return nil, fmt.Errorf("scenario: stream spec generated no jobs over horizon %g", a.Horizon)
	}
	return &StreamWorkload{
		Spec:        n,
		Fingerprint: spec.Fingerprint(),
		Jobs:        jobs,
		Periodic:    periodic,
		Aperiodic:   len(jobs) - periodic,
		Lib:         lib,
		PETypeNames: typeNames,
		Layout:      n.Platform.Layout,
	}, nil
}
