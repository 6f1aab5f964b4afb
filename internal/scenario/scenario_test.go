package scenario

import (
	"context"
	"math"
	"strings"
	"testing"

	"thermalsched/internal/cosynth"
	"thermalsched/internal/sched"
)

// serialize renders a scenario's graph and library in their canonical
// text forms — the byte-identity witness the determinism tests compare.
func serialize(t *testing.T, s *Scenario) string {
	t.Helper()
	var tg, lib strings.Builder
	if err := s.Graph.Write(&tg); err != nil {
		t.Fatal(err)
	}
	if err := s.Lib.Write(&lib); err != nil {
		t.Fatal(err)
	}
	return tg.String() + "\n===\n" + lib.String()
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Spec{
		Seed: 42,
		Graph: GraphParams{
			Tasks: 40, CCR: 0.2, BranchDensity: 0.3,
		},
		Platform: PlatformParams{PEs: 6, MinSpeed: 0.6, MaxSpeed: 2.0},
	}
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := serialize(t, a), serialize(t, b); sa != sb {
		t.Errorf("same spec generated different scenarios:\n%s\n---\n%s", sa, sb)
	}
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", a.Fingerprint, b.Fingerprint)
	}

	// A different seed must change the workload.
	spec.Seed = 43
	c, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(t, a) == serialize(t, c) {
		t.Error("different seeds generated identical scenarios")
	}
	if a.Fingerprint == c.Fingerprint {
		t.Error("different seeds share a fingerprint")
	}
}

// Seed zero is a valid seed: it must be honored verbatim (deterministic
// and distinct from seed 1), never rewritten — the scenario-level
// counterpart of TestCoSynthesisSeedZeroContract in the root package.
func TestGenerateSeedZeroHonored(t *testing.T) {
	zero := Spec{Seed: 0, Graph: GraphParams{Tasks: 25}}
	a, err := Generate(zero)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(zero)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(t, a) != serialize(t, b) {
		t.Error("seed 0 is not deterministic")
	}
	one, err := Generate(Spec{Seed: 1, Graph: GraphParams{Tasks: 25}})
	if err != nil {
		t.Fatal(err)
	}
	if serialize(t, a) == serialize(t, one) {
		t.Error("seed 0 produced the same scenario as seed 1 (seed rewritten?)")
	}
}

func TestNormalizationInvariance(t *testing.T) {
	// A zero field and its explicit default are the same scenario.
	implicit := Spec{Seed: 7}
	explicit := Spec{
		Name: "scenario",
		Seed: 7,
		Graph: GraphParams{
			Shape: ShapeLayered, Tasks: 20, MaxFanOut: 4, MaxFanIn: 3,
			CCR: 0.1, Tightness: 1.6, Types: 8,
		},
		Platform: PlatformParams{
			PEs: 4, MinSpeed: 1, MaxSpeed: 1, MeanWork: 100, MeanPower: 6,
			Noise: 0.35, Layout: LayoutGrid,
		},
	}
	if implicit.Fingerprint() != explicit.Fingerprint() {
		t.Errorf("fingerprint differs between zero spec and explicit defaults")
	}
	a, err := Generate(implicit)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if serialize(t, a) != serialize(t, b) {
		t.Error("zero spec and explicit defaults generated different scenarios")
	}
}

// Every fingerprint-relevant field change must move the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := Spec{Seed: 3}
	variants := map[string]Spec{
		"name":      {Name: "x", Seed: 3},
		"seed":      {Seed: 4},
		"shape":     {Seed: 3, Graph: GraphParams{Shape: ShapeSeriesParallel}},
		"tasks":     {Seed: 3, Graph: GraphParams{Tasks: 21}},
		"fanout":    {Seed: 3, Graph: GraphParams{MaxFanOut: 5}},
		"fanin":     {Seed: 3, Graph: GraphParams{MaxFanIn: 2}},
		"ccr":       {Seed: 3, Graph: GraphParams{CCR: 0.5}},
		"tightness": {Seed: 3, Graph: GraphParams{Tightness: 2}},
		"branch":    {Seed: 3, Graph: GraphParams{BranchDensity: 0.5}},
		"types":     {Seed: 3, Graph: GraphParams{Types: 4}},
		"pes":       {Seed: 3, Platform: PlatformParams{PEs: 8}},
		"minspeed":  {Seed: 3, Platform: PlatformParams{MinSpeed: 0.5}},
		"maxspeed":  {Seed: 3, Platform: PlatformParams{MaxSpeed: 2}},
		"work":      {Seed: 3, Platform: PlatformParams{MeanWork: 50}},
		"power":     {Seed: 3, Platform: PlatformParams{MeanPower: 3}},
		"noise":     {Seed: 3, Platform: PlatformParams{Noise: 0.1}},
		"layout":    {Seed: 3, Platform: PlatformParams{Layout: LayoutRow}},
	}
	fp := base.Fingerprint()
	for name, v := range variants {
		if v.Fingerprint() == fp {
			t.Errorf("changing %s did not change the fingerprint", name)
		}
	}
}

func TestLayeredShapeStructure(t *testing.T) {
	spec := Spec{
		Seed:  11,
		Graph: GraphParams{Tasks: 60, MaxFanOut: 3, MaxFanIn: 2},
	}
	s, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph
	if g.NumTasks() != 60 {
		t.Fatalf("got %d tasks, want 60", g.NumTasks())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	for id := 0; id < g.NumTasks(); id++ {
		if in := g.InDegree(id); in > 2 {
			t.Errorf("task %d has fan-in %d > MaxFanIn 2", id, in)
		}
	}
	sum := s.Summarize()
	if sum.Depth < 2 {
		t.Errorf("layered graph depth %d, want >= 2", sum.Depth)
	}
}

func TestSeriesParallelShapeStructure(t *testing.T) {
	spec := Spec{
		Seed:  13,
		Graph: GraphParams{Shape: ShapeSeriesParallel, Tasks: 50, MaxFanOut: 4},
	}
	s, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	g := s.Graph
	if err := g.Validate(); err != nil {
		t.Fatalf("generated graph invalid: %v", err)
	}
	if src := g.Sources(); len(src) != 1 || src[0] != 0 {
		t.Errorf("series-parallel graph sources %v, want [0]", src)
	}
	if snk := g.Sinks(); len(snk) != 1 || snk[0] != g.NumTasks()-1 {
		t.Errorf("series-parallel graph sinks %v, want [%d]", snk, g.NumTasks()-1)
	}
}

func TestCCRCalibration(t *testing.T) {
	for _, ccr := range []float64{0.05, 0.5, 2.0} {
		s, err := Generate(Spec{
			Seed:  17,
			Graph: GraphParams{Tasks: 120, CCR: ccr},
		})
		if err != nil {
			t.Fatal(err)
		}
		sum := s.Summarize()
		// The volume draw is uniform in [0.5, 1.5]×mean, so the sample
		// mean should land well within ±35% of the target at 100+ edges.
		if sum.CCR < 0.65*ccr || sum.CCR > 1.35*ccr {
			t.Errorf("target CCR %g realized as %g", ccr, sum.CCR)
		}
	}
}

func TestDeadlineTightnessMonotonic(t *testing.T) {
	deadline := func(tight float64) float64 {
		s, err := Generate(Spec{
			Seed:  19,
			Graph: GraphParams{Tasks: 40, Tightness: tight},
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Graph.Deadline
	}
	loose, tight := deadline(2.5), deadline(1.1)
	if !(loose > tight) {
		t.Errorf("tightness 2.5 deadline %g not greater than tightness 1.1 deadline %g", loose, tight)
	}
	if ratio := loose / tight; math.Abs(ratio-2.5/1.1) > 0.05*ratio {
		t.Errorf("deadline ratio %g far from tightness ratio %g", ratio, 2.5/1.1)
	}
}

func TestBranchDensityMarksConditionals(t *testing.T) {
	s, err := Generate(Spec{
		Seed:  23,
		Graph: GraphParams{Tasks: 80, BranchDensity: 1, MaxFanOut: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := s.Summarize()
	if sum.BranchNodes == 0 {
		t.Fatal("BranchDensity 1 marked no branch nodes")
	}
	// Every branch node's out-edge probabilities must sum to at most 1
	// (the floor-rounding rule) and nearly 1.
	g := s.Graph
	for id := 0; id < g.NumTasks(); id++ {
		succ := g.Successors(id)
		total, conditional := 0.0, false
		for _, e := range succ {
			if e.Prob > 0 && e.Prob < 1 {
				conditional = true
			}
			p := e.Prob
			if p == 0 {
				p = 1
			}
			total += p
		}
		if !conditional {
			continue
		}
		if total > 1 || total < 0.99 {
			t.Errorf("branch node %d probabilities sum to %g", id, total)
		}
	}
}

// A generated scenario must run end to end through the platform flow on
// its own heterogeneous platform, and a default-tightness deadline must
// be comfortably met.
func TestScenarioSchedulesOnGeneratedPlatform(t *testing.T) {
	s, err := Generate(Spec{
		Seed: 29,
		Graph: GraphParams{
			Tasks: 50, CCR: 0.2,
		},
		Platform: PlatformParams{PEs: 6, MinSpeed: 0.6, MaxSpeed: 2.0, Layout: LayoutGrid},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []sched.Policy{sched.MinTaskEnergy, sched.ThermalAware} {
		cfg := cosynth.DefaultPlatformConfig(policy)
		cfg.Platform = &cosynth.PlatformDesc{TypeNames: s.PETypeNames, Layout: s.Layout}
		res, err := cosynth.RunPlatform(context.Background(), s.Graph, s.Lib, cfg)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		if !res.Metrics.Feasible {
			t.Errorf("%v: generated scenario missed its deadline (makespan %g, deadline %g)",
				policy, res.Metrics.Makespan, s.Graph.Deadline)
		}
		if res.Metrics.MaxTemp < 30 || res.Metrics.MaxTemp > 150 {
			t.Errorf("%v: implausible max temperature %g", policy, res.Metrics.MaxTemp)
		}
		if len(res.Arch.PEs) != 6 {
			t.Errorf("%v: architecture has %d PEs, want 6", policy, len(res.Arch.PEs))
		}
	}
}

func TestSpecValidate(t *testing.T) {
	bad := []Spec{
		{Graph: GraphParams{Shape: "ring"}},
		{Graph: GraphParams{Tasks: -1}},
		{Graph: GraphParams{Tasks: MaxTasks + 1}},
		{Graph: GraphParams{CCR: -0.1}},
		{Graph: GraphParams{Tightness: -1}},
		{Graph: GraphParams{BranchDensity: 1.5}},
		{Platform: PlatformParams{PEs: MaxPEs + 1}},
		{Platform: PlatformParams{MinSpeed: 2, MaxSpeed: 1}},
		{Platform: PlatformParams{Noise: 1}},
		{Platform: PlatformParams{Layout: "torus"}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("bad spec %d validated: %+v", i, s)
		}
	}
	if err := (Spec{}).Validate(); err != nil {
		t.Errorf("zero spec rejected: %v", err)
	}
}
