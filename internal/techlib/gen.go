package techlib

import (
	"fmt"
	"math/rand"
)

// GenParams parameterizes the library generator. Speeds are relative to
// a nominal PE (speed 1.0): WCET(i,j) = work_i / speed_j × noise, and
// power grows superlinearly with speed, WCPC(i,j) = power_i × speed_j^2
// × noise, so energy per task grows roughly linearly with speed. The
// exponent 2 follows the classic frequency/voltage-scaling argument the
// paper's power heuristics presuppose.
type GenParams struct {
	NumTaskTypes int
	// MeanWork is the average task work in scheduler time units on the
	// nominal (speed 1.0) PE; per-type work is uniform in [0.5, 1.5]×mean.
	MeanWork float64
	// MeanPower is the average execution power of a task on the nominal
	// PE, in W; per-type power is uniform in [0.5, 1.5]×mean.
	MeanPower float64
	// Noise is the relative jitter applied per (task, PE) pair, e.g. 0.15
	// for ±15%.
	Noise float64
	Seed  int64
}

// PESpec describes one PE type for the generator.
type PESpec struct {
	Name  string
	Speed float64 // relative performance; 1.0 = nominal
	Cost  float64
	Area  float64 // m²
	// Coverage is the fraction of task types this PE can run (specialized
	// PEs cover less). 1.0 = runs everything. The first registered PE
	// type is forced to full coverage so every graph stays schedulable.
	Coverage float64
}

// Generate builds a deterministic library from PE specs.
func Generate(p GenParams, specs []PESpec) (*Library, error) {
	if p.NumTaskTypes < 1 {
		return nil, fmt.Errorf("techlib: NumTaskTypes %d", p.NumTaskTypes)
	}
	if !(p.MeanWork > 0) || !(p.MeanPower > 0) {
		return nil, fmt.Errorf("techlib: mean work/power must be positive (%g, %g)", p.MeanWork, p.MeanPower)
	}
	if p.Noise < 0 || p.Noise >= 1 {
		return nil, fmt.Errorf("techlib: noise %g out of [0,1)", p.Noise)
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("techlib: no PE specs")
	}
	rng := rand.New(rand.NewSource(p.Seed))
	lib, err := NewLibrary(p.NumTaskTypes)
	if err != nil {
		return nil, err
	}

	work := make([]float64, p.NumTaskTypes)
	power := make([]float64, p.NumTaskTypes)
	for t := range work {
		work[t] = p.MeanWork * (0.5 + rng.Float64())
		power[t] = p.MeanPower * (0.5 + rng.Float64())
	}
	jitter := func() float64 { return 1 + p.Noise*(2*rng.Float64()-1) }

	for si, s := range specs {
		if !(s.Speed > 0) {
			return nil, fmt.Errorf("techlib: PE spec %q has non-positive speed", s.Name)
		}
		entries := make([]Entry, p.NumTaskTypes)
		runnable := make([]bool, p.NumTaskTypes)
		for t := 0; t < p.NumTaskTypes; t++ {
			covered := si == 0 || s.Coverage >= 1 || rng.Float64() < s.Coverage
			runnable[t] = covered
			if covered {
				entries[t] = Entry{
					WCET: work[t] / s.Speed * jitter(),
					WCPC: power[t] * s.Speed * s.Speed * jitter(),
				}
			}
		}
		pe := PEType{Name: s.Name, Cost: s.Cost, Area: s.Area, IdlePower: 0.1 * s.Speed}
		if err := lib.AddPEType(pe, entries, runnable); err != nil {
			return nil, err
		}
	}
	if err := lib.Validate(); err != nil {
		return nil, err
	}
	return lib, nil
}

// CoSynthesisSpecs returns the heterogeneous PE palette the co-synthesis
// loop selects from: a slow/cheap core, the nominal core, a fast/hot
// core, and a very fast, expensive core with partial coverage
// (ASIC-like).
func CoSynthesisSpecs() []PESpec {
	return []PESpec{
		{Name: "pe-slow", Speed: 0.6, Cost: 40, Area: 9e-6, Coverage: 1.0},
		{Name: "pe-med", Speed: 1.0, Cost: 80, Area: 16e-6, Coverage: 1.0},
		{Name: "pe-fast", Speed: 1.6, Cost: 160, Area: 25e-6, Coverage: 1.0},
		{Name: "pe-turbo", Speed: 2.2, Cost: 300, Area: 36e-6, Coverage: 0.75},
	}
}

// PlatformSpecs returns the paper's "four identical PEs": same nominal
// speed, cost and area, but each instance gets its own library row, so
// the per-(task, PE) jitter of Generate produces TGFF-style tables in
// which the same task has slightly different WCET/WCPC on each instance.
// That per-instance variation is what lets the power heuristics reduce
// total power even on the homogeneous platform (paper Table 1, right).
func PlatformSpecs() []PESpec {
	out := make([]PESpec, 0, 4)
	for _, n := range PlatformPETypeNames() {
		out = append(out, PESpec{Name: n, Speed: 1.0, Cost: 80, Area: 16e-6, Coverage: 1.0})
	}
	return out
}

// PlatformPETypeNames lists the four platform PE type names in instance
// order.
func PlatformPETypeNames() []string {
	return []string{"pe-med0", "pe-med1", "pe-med2", "pe-med3"}
}

// StandardSpecs returns the full PE palette: the co-synthesis types plus
// the four platform instances.
func StandardSpecs() []PESpec {
	return append(CoSynthesisSpecs(), PlatformSpecs()...)
}

// StandardLibrary returns the deterministic library shared by the
// experiments: 8 task types (matching taskgraph.NumTaskTypes), work
// calibrated so the paper benchmarks are schedulable within their
// deadlines on a 4-PE platform, power calibrated so total benchmark
// power lands in the paper's 6–45 W band.
func StandardLibrary() (*Library, error) {
	return Generate(GenParams{
		NumTaskTypes: 8,
		MeanWork:     100,
		MeanPower:    6.0,
		Noise:        0.35,
		Seed:         2005, // DATE 2005
	}, StandardSpecs())
}

// PlatformPEType is the nominal core type name (used by tests and as the
// co-synthesis seed PE).
const PlatformPEType = "pe-med"

// DefaultBusTimePerUnit is the shared-bus rate of the experiments, in
// time units per data unit: a 40-unit transfer costs two time units,
// small against ~100-unit tasks. Scenario CCRs are calibrated to it.
const DefaultBusTimePerUnit = 0.05
