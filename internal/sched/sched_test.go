package sched

import (
	"context"
	"math"
	"strings"
	"testing"

	"thermalsched/internal/taskgraph"
	"thermalsched/internal/techlib"
)

// testLib builds a 2-task-type library with a slow/cool and a fast/hot PE
// type whose numbers are easy to reason about.
func testLib(t testing.TB) *techlib.Library {
	t.Helper()
	lib, err := techlib.NewLibrary(2)
	if err != nil {
		t.Fatal(err)
	}
	// slow: type0 {100, 2W}, type1 {120, 3W}
	if err := lib.AddPEType(
		techlib.PEType{Name: "slow", Cost: 10, Area: 9e-6, IdlePower: 0.1},
		[]techlib.Entry{{WCET: 100, WCPC: 2}, {WCET: 120, WCPC: 3}}, nil); err != nil {
		t.Fatal(err)
	}
	// fast: type0 {50, 8W}, type1 {60, 10W} — 2x speed, 4x power, 2x energy
	if err := lib.AddPEType(
		techlib.PEType{Name: "fast", Cost: 50, Area: 16e-6, IdlePower: 0.2},
		[]techlib.Entry{{WCET: 50, WCPC: 8}, {WCET: 60, WCPC: 10}}, nil); err != nil {
		t.Fatal(err)
	}
	return lib
}

// chainGraph builds t0 -> t1 -> t2, all type 0.
func chainGraph(t testing.TB, deadline float64) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.NewGraph("chain", deadline)
	for i := 0; i < 3; i++ {
		if err := g.AddTask(taskgraph.Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := g.AddEdge(taskgraph.Edge{From: i, To: i + 1, Data: 10}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// forkGraph builds t0 -> {t1..t4}, all type 0: four independent children.
func forkGraph(t testing.TB, deadline float64) *taskgraph.Graph {
	t.Helper()
	g := taskgraph.NewGraph("fork", deadline)
	for i := 0; i < 5; i++ {
		if err := g.AddTask(taskgraph.Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < 5; i++ {
		if err := g.AddEdge(taskgraph.Edge{From: 0, To: i, Data: 5}); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func twoPEArch(busRate float64) Architecture {
	return Architecture{
		Name:           "duo",
		PEs:            []PE{{Name: "p0", Type: 0}, {Name: "p1", Type: 1}},
		BusTimePerUnit: busRate,
	}
}

func TestArchitectureValidate(t *testing.T) {
	lib := testLib(t)
	good := twoPEArch(0)
	if err := good.Validate(lib); err != nil {
		t.Errorf("valid arch rejected: %v", err)
	}
	cases := []Architecture{
		{Name: "empty"},
		{Name: "dup", PEs: []PE{{Name: "a", Type: 0}, {Name: "a", Type: 1}}},
		{Name: "noname", PEs: []PE{{Name: "", Type: 0}}},
		{Name: "badtype", PEs: []PE{{Name: "a", Type: 7}}},
		{Name: "negbus", PEs: []PE{{Name: "a", Type: 0}}, BusTimePerUnit: -1},
	}
	for _, a := range cases {
		if err := a.Validate(lib); err == nil {
			t.Errorf("arch %q accepted", a.Name)
		}
	}
}

func TestArchitectureHelpers(t *testing.T) {
	lib := testLib(t)
	a := twoPEArch(0)
	if got := a.PENames(); len(got) != 2 || got[1] != "p1" {
		t.Errorf("PENames = %v", got)
	}
	if got := a.TotalCost(lib); got != 60 {
		t.Errorf("TotalCost = %v, want 60", got)
	}
}

func TestPlatform(t *testing.T) {
	lib := testLib(t)
	arch, err := Platform(lib, "slow", 4, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.PEs) != 4 || arch.PEs[3].Name != "pe3" {
		t.Errorf("platform PEs = %v", arch.PEs)
	}
	for _, pe := range arch.PEs {
		if lib.PEType(pe.Type).Name != "slow" {
			t.Error("platform PE has wrong type")
		}
	}
	if _, err := Platform(lib, "missing", 4, 0); err == nil {
		t.Error("unknown PE type accepted")
	}
	if _, err := Platform(lib, "slow", 0, 0); err == nil {
		t.Error("zero-count platform accepted")
	}
}

func TestPolicyStringParseRoundTrip(t *testing.T) {
	for _, p := range Policies() {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("round trip %v -> %q -> %v (%v)", p, p.String(), got, err)
		}
	}
	if _, err := ParsePolicy("nonsense"); err == nil {
		t.Error("nonsense policy parsed")
	}
	if Policy(99).String() == "" {
		t.Error("unknown policy String empty")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig(Baseline).Validate(); err != nil {
		t.Errorf("default baseline invalid: %v", err)
	}
	c := DefaultConfig(ThermalAware)
	if err := c.Validate(); err == nil {
		t.Error("thermal config without oracle accepted")
	}
	c.Oracle = &fakeOracle{}
	if err := c.Validate(); err != nil {
		t.Errorf("thermal config with oracle rejected: %v", err)
	}
	c = DefaultConfig(Baseline)
	c.PowerWeight = -1
	if err := c.Validate(); err == nil {
		t.Error("negative weight accepted")
	}
	if err := (Config{Policy: Policy(42)}).Validate(); err == nil {
		t.Error("unknown policy accepted")
	}
}

// fakeOracle returns a fixed average temperature plus a bias proportional
// to the power imbalance, so thermal-aware scheduling prefers balance.
// Each inquiry is evaluated directly on the full power vector.
type fakeOracle struct{ base []float64 }

func (o *fakeOracle) SetBase(pePower []float64) error {
	o.base = append(o.base[:0], pePower...)
	return nil
}

func (o *fakeOracle) AvgTempDelta(pe int, deltaW float64) (float64, error) {
	var sum, max float64
	for j, p := range o.base {
		if j == pe {
			p += deltaW
		}
		sum += p
		if p > max {
			max = p
		}
	}
	return 45 + sum + 2*max, nil
}

func TestBaselineChainSchedule(t *testing.T) {
	lib := testLib(t)
	g := chainGraph(t, 1000)
	s, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0), lib, DefaultConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("invalid schedule: %v", err)
	}
	// All tasks are type 0; the fast PE runs them in 50 each. A chain has
	// no parallelism, so the baseline should finish in 150 on the fast PE.
	if s.Makespan != 150 {
		t.Errorf("makespan = %v, want 150 (fast PE chain)", s.Makespan)
	}
	if !s.MeetsDeadline() {
		t.Error("deadline missed")
	}
}

func TestBaselineUsesParallelism(t *testing.T) {
	lib := testLib(t)
	g := forkGraph(t, 1000)
	s, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0), lib, DefaultConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	e := s.PEEnergy()
	if e[0] == 0 || e[1] == 0 {
		t.Errorf("both PEs should be used: energy = %v", e)
	}
}

func TestCommunicationDelaysRespected(t *testing.T) {
	lib := testLib(t)
	g := chainGraph(t, 1000)
	// Make cross-PE communication very expensive: chain should stay on
	// one PE.
	s, err := AllocateAndSchedule(context.Background(), g, twoPEArch(50), lib, DefaultConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	pe := s.Assignments[0].PE
	for _, a := range s.Assignments {
		if a.PE != pe {
			t.Errorf("expensive bus should keep the chain on one PE: %+v", s.Assignments)
			break
		}
	}
}

func TestHeuristic3PrefersLowEnergyPE(t *testing.T) {
	lib := testLib(t)
	g := chainGraph(t, 1000)
	cfg := DefaultConfig(MinTaskEnergy)
	cfg.EnergyWeight = 1.0 // dominate: always pick the low-energy PE
	s, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0), lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// slow PE: energy 200/task; fast: 400/task. With a dominant energy
	// weight every task should sit on the slow PE (index 0).
	for _, a := range s.Assignments {
		if a.PE != 0 {
			t.Errorf("task %d on PE %d, want slow PE 0", a.Task, a.PE)
		}
	}
	if s.TotalEnergy() != 600 {
		t.Errorf("TotalEnergy = %v, want 600", s.TotalEnergy())
	}
}

func TestHeuristic1PrefersLowPowerPE(t *testing.T) {
	lib := testLib(t)
	g := chainGraph(t, 1000)
	cfg := DefaultConfig(MinTaskPower)
	cfg.PowerWeight = 1000 // dominate
	s, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0), lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range s.Assignments {
		if a.PE != 0 {
			t.Errorf("task %d on PE %d, want low-power PE 0", a.Task, a.PE)
		}
	}
}

func TestHeuristic2BalancesPEPower(t *testing.T) {
	lib := testLib(t)
	// Two identical PEs so power balance is the only differentiator.
	arch := Architecture{
		Name: "twin",
		PEs:  []PE{{Name: "a", Type: 0}, {Name: "b", Type: 0}},
	}
	g := forkGraph(t, 10000)
	cfg := DefaultConfig(MinPEPower)
	cfg.PowerWeight = 500
	s, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	e := s.PEEnergy()
	if e[0] == 0 || e[1] == 0 {
		t.Errorf("heuristic 2 should spread energy over both PEs: %v", e)
	}
}

func TestThermalAwareBalancesLoad(t *testing.T) {
	lib := testLib(t)
	arch := Architecture{
		Name: "twin",
		PEs:  []PE{{Name: "a", Type: 0}, {Name: "b", Type: 0}},
	}
	g := forkGraph(t, 10000)
	cfg := DefaultConfig(ThermalAware)
	cfg.Oracle = &fakeOracle{}
	cfg.TempWeight = 100
	s, err := AllocateAndSchedule(context.Background(), g, arch, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	e := s.PEEnergy()
	if e[0] == 0 || e[1] == 0 {
		t.Errorf("thermal ASP should spread load: energy = %v", e)
	}
}

func TestSchedulerErrors(t *testing.T) {
	lib := testLib(t)
	g := chainGraph(t, 1000)

	// Library without coverage for the graph's task types.
	partial, err := techlib.NewLibrary(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := partial.AddPEType(
		techlib.PEType{Name: "only1", Cost: 1, Area: 1e-6},
		[]techlib.Entry{{}, {WCET: 1, WCPC: 1}}, []bool{false, true}); err != nil {
		t.Fatal(err)
	}
	archP := Architecture{Name: "p", PEs: []PE{{Name: "x", Type: 0}}}
	if _, err := AllocateAndSchedule(context.Background(), g, archP, partial, DefaultConfig(Baseline)); err == nil {
		t.Error("uncoverable graph scheduled")
	}

	// Invalid architecture.
	if _, err := AllocateAndSchedule(context.Background(), g, Architecture{Name: "e"}, lib, DefaultConfig(Baseline)); err == nil {
		t.Error("empty arch accepted")
	}
	// Invalid graph.
	if _, err := AllocateAndSchedule(context.Background(), taskgraph.NewGraph("e", 1), twoPEArch(0), lib, DefaultConfig(Baseline)); err == nil {
		t.Error("empty graph accepted")
	}
	// Invalid config.
	bad := DefaultConfig(ThermalAware) // no oracle
	if _, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0), lib, bad); err == nil {
		t.Error("oracle-less thermal config accepted")
	}
}

func TestScheduleMetrics(t *testing.T) {
	lib := testLib(t)
	g := chainGraph(t, 1000)
	s, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0), lib, DefaultConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	// Baseline chain on fast PE: 3 tasks × 50 × 8 W = 1200 energy.
	if s.TotalEnergy() != 1200 {
		t.Errorf("TotalEnergy = %v, want 1200", s.TotalEnergy())
	}
	if got := s.TotalPower(); math.Abs(got-1.2) > 1e-12 {
		t.Errorf("TotalPower = %v, want 1.2", got)
	}
	avg, err := s.PEAveragePower(s.Graph.Deadline)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range avg {
		sum += p
	}
	if math.Abs(sum-1.2) > 1e-12 {
		t.Errorf("sum of PE average power = %v, want 1.2", sum)
	}
	if _, err := s.PEAveragePower(0); err == nil {
		t.Error("zero horizon accepted")
	}
	if !strings.Contains(s.Gantt(), "makespan") {
		t.Error("Gantt output malformed")
	}
}

func TestScheduleValidateCatchesCorruption(t *testing.T) {
	lib := testLib(t)
	g := chainGraph(t, 1000)
	fresh := func() *Schedule {
		s, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0), lib, DefaultConfig(Baseline))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	corruptions := []struct {
		name string
		mut  func(*Schedule)
	}{
		{"wrong PE index", func(s *Schedule) { s.Assignments[0].PE = 9 }},
		{"negative start", func(s *Schedule) { s.Assignments[0].Start = -5 }},
		{"wrong duration", func(s *Schedule) { s.Assignments[0].Finish += 10 }},
		{"precedence violation", func(s *Schedule) {
			s.Assignments[1].Start = 0
			s.Assignments[1].Finish = s.Assignments[1].Start +
				(s.Assignments[1].Finish - s.Assignments[1].Start)
		}},
		{"task id mismatch", func(s *Schedule) { s.Assignments[0].Task = 2 }},
		{"missing assignment", func(s *Schedule) { s.Assignments = s.Assignments[:2] }},
		{"makespan too small", func(s *Schedule) { s.Makespan = 1 }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s := fresh()
			tc.mut(s)
			if err := s.Validate(); err == nil {
				t.Error("corruption not detected")
			}
		})
	}
}

func TestOverlapDetection(t *testing.T) {
	lib := testLib(t)
	// Two independent tasks forced onto one PE at overlapping times.
	g := taskgraph.NewGraph("pair", 1000)
	for i := 0; i < 2; i++ {
		if err := g.AddTask(taskgraph.Task{ID: i, Name: "t", Type: 0}); err != nil {
			t.Fatal(err)
		}
	}
	arch := Architecture{Name: "solo", PEs: []PE{{Name: "a", Type: 0}}}
	s, err := AllocateAndSchedule(context.Background(), g, arch, lib, DefaultConfig(Baseline))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	s.Assignments[1].Start = s.Assignments[0].Start
	s.Assignments[1].Finish = s.Assignments[1].Start + 100
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "overlap") {
		t.Errorf("overlap not detected: %v", err)
	}
}

func TestDeterministicScheduling(t *testing.T) {
	lib := testLib(t)
	g, err := taskgraph.Generate(taskgraph.GenParams{
		Name: "r", Tasks: 20, Edges: 30, Deadline: 5000, Types: 2,
		Sources: 2, MaxData: 10, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0.1), lib, DefaultConfig(MinTaskEnergy))
	if err != nil {
		t.Fatal(err)
	}
	b, err := AllocateAndSchedule(context.Background(), g, twoPEArch(0.1), lib, DefaultConfig(MinTaskEnergy))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assignments {
		if a.Assignments[i] != b.Assignments[i] {
			t.Fatalf("schedule not deterministic at task %d", i)
		}
	}
}
