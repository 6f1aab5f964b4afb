// Package scenario is the synthetic-workload subsystem: deterministic,
// seeded generators for random DAG task graphs (layered and
// series-parallel shapes with parameterized fan-in/out, communication-
// to-computation ratio, deadline tightness and conditional-branch
// density) and heterogeneous platforms (PE count, speed/power spread,
// row or grid floorplan), emitting exactly the structs the repository's
// parsers produce (taskgraph.Graph, techlib.Library). Every scenario
// carries a stable Fingerprint so caches and golden tests can key on
// generated inputs the same way they key on the paper benchmarks.
//
// The seed contract is strict: a Spec's Seed is used verbatim — zero is
// an ordinary seed, never rewritten — and the same normalized Spec
// always generates byte-identical graph and library serializations.
package scenario

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// Shapes accepted by GraphParams.Shape.
const (
	// ShapeLayered builds the graph layer by layer: tasks are binned
	// into ranks and draw parents from earlier ranks under the fan-in/
	// fan-out caps (the TGFF-style default).
	ShapeLayered = "layered"
	// ShapeSeriesParallel builds a recursive series-parallel graph with
	// a single source and sink — fork/join parallel sections composed in
	// series, the classic structured-workload family.
	ShapeSeriesParallel = "series-parallel"
)

// Layouts accepted by PlatformParams.Layout.
const (
	// LayoutGrid places the PEs in a near-square grid (the default for
	// generated platforms; scales past the paper's 4-PE row).
	LayoutGrid = "grid"
	// LayoutRow places the PEs in a single row, the paper platform's
	// worst-case lateral-coupling arrangement.
	LayoutRow = "row"
)

// GraphParams parameterizes the task-graph half of a scenario. Zero
// values mean the documented defaults (an explicit zero is meaningful
// only for BranchDensity, whose zero really does mean "unconditional").
type GraphParams struct {
	// Shape is ShapeLayered (default) or ShapeSeriesParallel.
	Shape string `json:"shape,omitempty"`
	// Tasks is the node count (default 20).
	Tasks int `json:"tasks,omitempty"`
	// MaxFanOut caps a task's successor count (default 4).
	MaxFanOut int `json:"maxFanOut,omitempty"`
	// MaxFanIn caps a task's predecessor count (default 3; layered
	// shape only — series-parallel joins have structural fan-in).
	MaxFanIn int `json:"maxFanIn,omitempty"`
	// CCR is the target communication-to-computation ratio: mean edge
	// transfer time over mean task execution time at the default bus
	// rate (default 0.1, matching the paper benchmarks' light traffic).
	CCR float64 `json:"ccr,omitempty"`
	// Tightness scales the deadline: deadline = Tightness × LB where LB
	// is the schedule-length lower bound (critical path vs. total work
	// over the platform's aggregate speed, whichever is larger).
	// Default 1.6; smaller is tighter.
	Tightness float64 `json:"tightness,omitempty"`
	// BranchDensity is the fraction of multi-successor tasks converted
	// into conditional branch nodes whose out-edges carry mutually
	// exclusive probabilities summing to 1 (default 0).
	BranchDensity float64 `json:"branchDensity,omitempty"`
	// Types is the number of distinct task types (default 8, the
	// standard library's universe).
	Types int `json:"types,omitempty"`
}

// PlatformParams parameterizes the platform half of a scenario: the
// generated technology library and floorplan arrangement.
type PlatformParams struct {
	// PEs is the processing-element count (default 4, the paper's
	// platform size).
	PEs int `json:"pes,omitempty"`
	// MinSpeed and MaxSpeed bound the relative-speed spread: PE i's
	// nominal speed is evenly spaced in [MinSpeed, MaxSpeed] with a
	// small seeded jitter. Power grows as speed² (the library
	// generator's voltage-scaling rule), so the spread is also a power
	// spread. Defaults 1.0/1.0 — a homogeneous platform.
	MinSpeed float64 `json:"minSpeed,omitempty"`
	MaxSpeed float64 `json:"maxSpeed,omitempty"`
	// MeanWork and MeanPower calibrate the library (defaults 100 time
	// units, 30 in a StreamSpec, and 6 W on a speed-1 PE, the standard
	// library's scale).
	MeanWork  float64 `json:"meanWork,omitempty"`
	MeanPower float64 `json:"meanPower,omitempty"`
	// Noise is the per-(task, PE) WCET/WCPC jitter (default 0.35).
	Noise float64 `json:"noise,omitempty"`
	// Layout is LayoutGrid (default) or LayoutRow.
	Layout string `json:"layout,omitempty"`
}

// Spec is the JSON-serializable description of one synthetic scenario.
// Specs are pure data: the same normalized Spec always generates the
// same scenario, keyed by Fingerprint.
type Spec struct {
	// Name names the generated graph (default "scenario").
	Name string `json:"name,omitempty"`
	// Seed drives every random draw of the generation. It is used
	// verbatim: zero is a valid seed and is never rewritten.
	Seed     int64          `json:"seed"`
	Graph    GraphParams    `json:"graph"`
	Platform PlatformParams `json:"platform"`
}

// Generation limits: a Spec arrives over the wire (the service's
// generate/campaign flows), so sizes are capped to keep one request
// from monopolizing the process.
const (
	MaxTasks = 5000
	MaxPEs   = 64
)

// Normalized returns the spec with every defaulted field filled in.
// Fingerprints and generation both operate on the normalized form, so
// a zero field and its explicit default are the same scenario.
func (s Spec) Normalized() Spec {
	if s.Name == "" {
		s.Name = "scenario"
	}
	g := &s.Graph
	if g.Shape == "" {
		g.Shape = ShapeLayered
	}
	if g.Tasks == 0 {
		g.Tasks = 20
	}
	if g.MaxFanOut == 0 {
		g.MaxFanOut = 4
	}
	if g.MaxFanIn == 0 {
		g.MaxFanIn = 3
	}
	if g.CCR == 0 {
		g.CCR = 0.1
	}
	if g.Tightness == 0 {
		g.Tightness = 1.6
	}
	if g.Types == 0 {
		g.Types = 8
	}
	s.Platform = s.Platform.normalized(100)
	return s
}

// normalized returns the platform with every defaulted field filled in;
// meanWork is the owning spec's MeanWork default.
func (p PlatformParams) normalized(meanWork float64) PlatformParams {
	if p.PEs == 0 {
		p.PEs = 4
	}
	if p.MinSpeed == 0 {
		p.MinSpeed = 1
	}
	if p.MaxSpeed == 0 {
		p.MaxSpeed = 1
	}
	if p.MeanWork == 0 {
		p.MeanWork = meanWork
	}
	if p.MeanPower == 0 {
		p.MeanPower = 6
	}
	if p.Noise == 0 {
		p.Noise = 0.35
	}
	if p.Layout == "" {
		p.Layout = LayoutGrid
	}
	return p
}

// validate reports the first problem with a normalized platform.
func (p PlatformParams) validate() error {
	switch {
	case p.PEs < 1 || p.PEs > MaxPEs:
		return fmt.Errorf("scenario: PEs %d out of [1, %d]", p.PEs, MaxPEs)
	case !(p.MinSpeed > 0) || p.MaxSpeed < p.MinSpeed:
		return fmt.Errorf("scenario: speed spread [%g, %g] invalid", p.MinSpeed, p.MaxSpeed)
	case !(p.MeanWork > 0) || !(p.MeanPower > 0):
		return fmt.Errorf("scenario: mean work/power must be positive (%g, %g)", p.MeanWork, p.MeanPower)
	case p.Noise < 0 || p.Noise >= 1:
		return fmt.Errorf("scenario: noise %g out of [0, 1)", p.Noise)
	}
	switch p.Layout {
	case LayoutGrid, LayoutRow:
	default:
		return fmt.Errorf("scenario: unknown layout %q (want %s or %s)", p.Layout, LayoutGrid, LayoutRow)
	}
	return nil
}

// Validate reports the first problem that makes the normalized spec
// ungeneratable.
func (s Spec) Validate() error {
	n := s.Normalized()
	g := n.Graph
	switch g.Shape {
	case ShapeLayered, ShapeSeriesParallel:
	default:
		return fmt.Errorf("scenario: unknown graph shape %q (want %s or %s)",
			g.Shape, ShapeLayered, ShapeSeriesParallel)
	}
	switch {
	case g.Tasks < 1 || g.Tasks > MaxTasks:
		return fmt.Errorf("scenario: tasks %d out of [1, %d]", g.Tasks, MaxTasks)
	case g.MaxFanOut < 1:
		return fmt.Errorf("scenario: MaxFanOut %d must be at least 1", g.MaxFanOut)
	case g.MaxFanIn < 1:
		return fmt.Errorf("scenario: MaxFanIn %d must be at least 1", g.MaxFanIn)
	case g.CCR < 0:
		return fmt.Errorf("scenario: negative CCR %g", g.CCR)
	case !(g.Tightness > 0):
		return fmt.Errorf("scenario: tightness %g must be positive", g.Tightness)
	case g.BranchDensity < 0 || g.BranchDensity > 1:
		return fmt.Errorf("scenario: branch density %g out of [0, 1]", g.BranchDensity)
	case g.Types < 1:
		return fmt.Errorf("scenario: task types %d must be at least 1", g.Types)
	}
	return n.Platform.validate()
}

// Fingerprint returns a stable hex digest of the normalized spec. Two
// specs with equal fingerprints generate identical scenarios, so model
// caches, scenario caches and golden tests can key on it. Fields are
// serialized explicitly, field by field, for the same reason the
// Engine's modelKey is: a reflective dump would silently destabilize
// the key if the Spec ever gained pointer fields. The thermalvet
// fpfields analyzer checks the registrations below statically: a
// field missing from this serialization fails the lint job by name.
//
//thermalvet:serializes Spec
//thermalvet:serializes GraphParams
//thermalvet:serializes PlatformParams
func (s Spec) Fingerprint() string {
	n := s.Normalized()
	h := fnv.New64a()
	fmt.Fprintf(h, "v1|%s|%d|", n.Name, n.Seed)
	g := n.Graph
	fmt.Fprintf(h, "%s|%d|%d|%d|%g|%g|%g|%d|", g.Shape, g.Tasks, g.MaxFanOut, g.MaxFanIn,
		g.CCR, g.Tightness, g.BranchDensity, g.Types)
	p := n.Platform
	fmt.Fprintf(h, "%d|%g|%g|%g|%g|%g|%s", p.PEs, p.MinSpeed, p.MaxSpeed,
		p.MeanWork, p.MeanPower, p.Noise, p.Layout)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Scenario is one generated workload: the task graph, the technology
// library backing the generated platform, and the platform description
// the platform flow needs to instantiate it. The structs are exactly
// what the .tg/.lib parsers produce, so a serialized scenario can be
// fed back through every existing input path.
type Scenario struct {
	// Spec is the normalized spec the scenario was generated from.
	Spec Spec
	// Fingerprint is Spec.Fingerprint(), precomputed.
	Fingerprint string
	// Graph is the generated task graph.
	Graph *taskgraph.Graph
	// Lib is the generated technology library: one PE type per platform
	// instance (per-instance WCET/WCPC jitter, like the paper platform).
	Lib *techlib.Library
	// PETypeNames lists the library type of each PE instance in
	// platform order.
	PETypeNames []string
	// Layout is the floorplan arrangement (LayoutGrid or LayoutRow).
	Layout string
}

// platformSeedSalt decorrelates the platform generator's seed stream
// from the graph generator's, so two scenarios differing only in seed
// get independent graph and platform draws.
const platformSeedSalt int64 = 0x5851f42d4c957f2d

// Generate builds the scenario described by the spec. The same spec
// (after normalization) always returns an identical scenario.
func Generate(spec Spec) (*Scenario, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	n := spec.Normalized()
	lib, typeNames, err := generatePlatform(n.Seed, n.Graph.Types, n.Platform)
	if err != nil {
		return nil, err
	}
	g, err := generateGraph(n, lib)
	if err != nil {
		return nil, err
	}
	return &Scenario{
		Spec:        n,
		Fingerprint: spec.Fingerprint(),
		Graph:       g,
		Lib:         lib,
		PETypeNames: typeNames,
		Layout:      n.Platform.Layout,
	}, nil
}

// Summary reports the realized properties of a generated scenario —
// the numbers a TGFF-style reporting line carries plus the realized
// CCR the generator calibrated for.
type Summary struct {
	Tasks       int     `json:"tasks"`
	Edges       int     `json:"edges"`
	Depth       int     `json:"depth"`
	Sources     int     `json:"sources"`
	Sinks       int     `json:"sinks"`
	BranchNodes int     `json:"branchNodes"`
	Deadline    float64 `json:"deadline"`
	CCR         float64 `json:"ccr"`
	PEs         int     `json:"pes"`
	TaskTypes   int     `json:"taskTypes"`
	Layout      string  `json:"layout"`
}

// Summarize computes the scenario's summary statistics.
func (s *Scenario) Summarize() (Summary, error) {
	lv, err := s.Graph.Levels()
	if err != nil {
		return Summary{}, err
	}
	depth := 0
	for _, l := range lv {
		if l > depth {
			depth = l
		}
	}
	sum := Summary{
		Tasks:     s.Graph.NumTasks(),
		Edges:     s.Graph.NumEdges(),
		Depth:     depth,
		Sources:   len(s.Graph.Sources()),
		Sinks:     len(s.Graph.Sinks()),
		Deadline:  s.Graph.Deadline,
		PEs:       len(s.PETypeNames),
		TaskTypes: s.Lib.NumTaskTypes(),
		Layout:    s.Layout,
	}
	// Branch nodes: tasks whose out-edges carry explicit probabilities.
	for id := 0; id < s.Graph.NumTasks(); id++ {
		for _, e := range s.Graph.Successors(id) {
			if e.Prob > 0 && e.Prob < 1 {
				sum.BranchNodes++
				break
			}
		}
	}
	sum.CCR = realizedCCR(s.Graph, s.Lib)
	return sum, nil
}

// realizedCCR is the generated graph's actual communication-to-
// computation ratio: mean edge transfer time over mean task execution
// time at the default bus rate.
func realizedCCR(g *taskgraph.Graph, lib *techlib.Library) float64 {
	var comp float64
	for _, t := range g.Tasks() {
		w, err := lib.MeanWCET(t.Type)
		if err != nil {
			return 0
		}
		comp += w
	}
	comp /= float64(g.NumTasks())
	if g.NumEdges() == 0 || comp == 0 {
		return 0
	}
	var comm float64
	for _, e := range g.Edges() {
		comm += e.Data * techlib.DefaultBusTimePerUnit
	}
	comm /= float64(g.NumEdges())
	return comm / comp
}

// rngFor returns the deterministic random stream for one half of the
// generation.
func rngFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
