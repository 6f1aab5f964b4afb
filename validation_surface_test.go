package thermalsched_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"

	"thermalsched"
	"thermalsched/internal/service"
)

// validationCase names a request shape, the field its FieldError
// names, and the CLI flags that reproduce it (nil when no flag
// spelling exists). noJSON marks a request JSON cannot carry (a NaN
// knob), which has no service spelling; library marks a fault only
// Engine.Check finds, against the engine's library, which
// Request.Validate therefore accepts.
type validationCase struct {
	name    string
	req     thermalsched.Request
	field   string
	cli     []string
	noJSON  bool
	library bool
}

// nanCase marks tc as a NaN- or Inf-knob case: Go callers and the
// CLI's float flags can pass them, JSON cannot.
func nanCase(tc validationCase) validationCase {
	tc.noJSON = true
	return tc
}

// ptr returns a pointer to a copy of v, for the Request knobs whose
// nil means "unset".
func ptr[T any](v T) *T { return &v }

// One validation message per surface is the consolidation contract:
// Engine.Check's typed field error is the text Request.Validate returns
// (for every fault that needs no library), the text the service's 400
// bodies carry verbatim (plus the machine-readable field name), and
// the text the CLI prints to stderr. These cases cover the redesigned
// flows — each names the request shape, the expected field and the CLI
// flags that reproduce it.
func validationCases() []validationCase {
	return []validationCase{
		{
			name:  "unknown flow",
			req:   thermalsched.Request{Flow: "psychic"},
			field: "flow",
			cli:   []string{"-flow", "psychic"},
		},
		{
			name:  "missing input",
			req:   thermalsched.Request{Flow: thermalsched.FlowPlatform, Policy: "thermal"},
			field: "input",
			cli:   []string{"-flow", "platform"},
		},
		{
			name: "stream with offline input",
			req: thermalsched.Request{Flow: thermalsched.FlowStream, Benchmark: "Bm1",
				Stream: &thermalsched.StreamSpec{Seed: 1}},
			field: "input",
			cli:   []string{"-flow", "stream", "-benchmark", "Bm1", "-seed", "1"},
		},
		{
			name: "offline policy on stream",
			req: thermalsched.Request{Flow: thermalsched.FlowStream, Policy: "thermal",
				Stream: &thermalsched.StreamSpec{Seed: 1}},
			field: "policy",
			cli:   []string{"-flow", "stream", "-policy", "thermal", "-seed", "1"},
		},
		{
			name: "online policy on offline flow",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform,
				Benchmark: "Bm1", Policy: "coolest"},
			field: "policy",
			cli:   []string{"-flow", "platform", "-benchmark", "Bm1", "-policy", "coolest"},
		},
		{
			name: "parallelism on a serial flow",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform,
				Benchmark: "Bm1", Policy: "thermal", Parallelism: 4},
			field: "parallelism",
			cli:   []string{"-flow", "platform", "-benchmark", "Bm1", "-parallelism", "4"},
		},
		{
			// Only the cosynthesis flow's GA floorplanner consumes the
			// seed; the CLI's -seed feeds the other flows' specs, so it
			// has no spelling of this request.
			name: "seed on a platform request",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform,
				Benchmark: "Bm1", Seed: ptr(int64(5))},
			field: "seed",
		},
		{
			name: "negative tempWeight",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform,
				Benchmark: "Bm1", TempWeight: ptr(-1.0)},
			field: "tempWeight",
			cli:   []string{"-flow", "platform", "-benchmark", "Bm1", "-tempweight", "-1"},
		},
		{
			name: "negative powerWeight",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform, Benchmark: "Bm1",
				Policy: "heuristic1", PowerWeight: ptr(-1.0)},
			field: "powerWeight",
		},
		{
			name: "negative energyWeight",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform, Benchmark: "Bm1",
				Policy: "heuristic3", EnergyWeight: ptr(-1.0)},
			field: "energyWeight",
		},
		{
			// A non-positive window used to fall back silently to the
			// scheduler's default while still moving the fingerprint.
			name: "non-positive thermalHorizon",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform,
				Benchmark: "Bm1", ThermalHorizon: ptr(0.0)},
			field: "thermalHorizon",
		},
		{
			name: "negative maxPEs",
			req: thermalsched.Request{Flow: thermalsched.FlowCoSynthesis,
				Benchmark: "Bm1", Policy: "thermal", MaxPEs: -1},
			field: "maxPEs",
			cli:   []string{"-flow", "cosynthesis", "-benchmark", "Bm1", "-maxpes", "-1"},
		},
		{
			name: "negative floorplanGenerations",
			req: thermalsched.Request{Flow: thermalsched.FlowCoSynthesis,
				Benchmark: "Bm1", Policy: "thermal", FloorplanGenerations: -1},
			field: "floorplanGenerations",
			cli:   []string{"-flow", "cosynthesis", "-benchmark", "Bm1", "-fpgens", "-1"},
		},
		simulateCase("negative simulate hysteresis", thermalsched.SimulateSpec{
			SupervisorSpec: thermalsched.SupervisorSpec{Hysteresis: -1}}, "simulate.hysteresis", nil),
		simulateCase("simulate throttle above 1", thermalsched.SimulateSpec{Throttle: 1.5}, "simulate.throttle", nil),
		simulateCase("negative simulate kp", thermalsched.SimulateSpec{Controller: "pi", Kp: -1}, "simulate.kp", nil),
		simulateCase("negative simulate ki", thermalsched.SimulateSpec{Controller: "pi", Ki: -1}, "simulate.ki", nil),
		simulateCase("simulate minScale above 1", thermalsched.SimulateSpec{Controller: "pi", MinScale: 1.5}, "simulate.minScale", nil),
		simulateCase("simulate ladder out of order", thermalsched.SimulateSpec{
			SupervisorSpec: thermalsched.SupervisorSpec{FairC: 90}}, "simulate.fairC", []string{"-fairc", "90"}),
		simulateCase("negative simulate coolTime", thermalsched.SimulateSpec{
			SupervisorSpec: thermalsched.SupervisorSpec{CoolTime: -1}}, "simulate.coolTime", []string{"-cooltime", "-1"}),
		// NaN fails every plain range comparison, so these knobs once
		// passed Validate and then stalled the run or finished on NaN
		// arithmetic.
		nanCase(simulateCase("NaN simulate kp", thermalsched.SimulateSpec{Controller: "pi", Kp: math.NaN()},
			"simulate.kp", nil)),
		nanCase(simulateCase("NaN simulate seriousScale", thermalsched.SimulateSpec{
			SupervisorSpec: thermalsched.SupervisorSpec{SeriousScale: math.NaN()}}, "simulate.seriousScale",
			[]string{"-seriousscale", "NaN"})),
		nanCase(simulateCase("NaN simulate triggerC", thermalsched.SimulateSpec{TriggerC: math.NaN()},
			"simulate.triggerC", []string{"-trigger", "NaN"})),
		nanCase(validationCase{
			name: "NaN stream hysteresis",
			req: thermalsched.Request{Flow: thermalsched.FlowStream, Stream: &thermalsched.StreamSpec{
				Seed: 1, SupervisorSpec: thermalsched.SupervisorSpec{Hysteresis: math.NaN()}}},
			field: "stream.hysteresis",
		}),
		// The campaign checked only its simulate spec's controller, so
		// these were accepted and then failed in every cell.
		campaignSimulateCase("negative campaign simulate hysteresis", thermalsched.SimulateSpec{
			SupervisorSpec: thermalsched.SupervisorSpec{Hysteresis: -1}}, "campaign.simulate.hysteresis", nil),
		campaignSimulateCase("negative campaign simulate replicas", thermalsched.SimulateSpec{Replicas: -2},
			"campaign.simulate.replicas", []string{"-replicas", "-2"}),
		campaignSimulateCase("campaign simulate minFactor above 1", thermalsched.SimulateSpec{MinFactor: 3},
			"campaign.simulate.minFactor", []string{"-minfactor", "3"}),
		campaignSimulateCase("campaign simulate throttle of 1", thermalsched.SimulateSpec{Throttle: 1},
			"campaign.simulate.throttle", nil),
		{
			name:  "negative campaign stream replicas",
			req:   thermalsched.Request{Flow: thermalsched.FlowCampaign, Campaign: &thermalsched.CampaignSpec{Stream: &thermalsched.StreamSpec{Replicas: -1}}},
			field: "campaign.stream.replicas",
			cli:   []string{"-flow", "campaign", "-stream", "-replicas", "-1"},
		},
		{
			// The open-loop replay flow is gone; simulate supersedes it.
			name:  "deleted dtm flow",
			req:   thermalsched.Request{Flow: "dtm", Benchmark: "Bm1"},
			field: "flow",
			cli:   []string{"-flow", "dtm", "-benchmark", "Bm1"},
		},
		{
			// The randomized sweep is gone; a default campaign is the
			// same heuristic-3 vs thermal study.
			name:  "deleted sweep flow",
			req:   thermalsched.Request{Flow: "sweep"},
			field: "flow",
			cli:   []string{"-flow", "sweep"},
		},
		// Each flow reads only the fields its registry row lists; these
		// were once accepted and ignored, under a fingerprint of their
		// own.
		{
			name: "maxPEs on a platform request",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform,
				Benchmark: "Bm1", MaxPEs: 3},
			field: "maxPEs",
			cli:   []string{"-flow", "platform", "-benchmark", "Bm1", "-maxpes", "3"},
		},
		{
			name: "candidateTypes on a platform request",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform,
				Benchmark: "Bm1", CandidateTypes: []string{"ARM"}},
			field: "candidateTypes",
		},
		{
			name: "tempWeight on a stream request",
			req: thermalsched.Request{Flow: thermalsched.FlowStream,
				Stream: &thermalsched.StreamSpec{Seed: 1}, TempWeight: ptr(1.0)},
			field: "tempWeight",
			cli:   []string{"-flow", "stream", "-seed", "1", "-tempweight", "1"},
		},
		{
			name:  "policy on a campaign request",
			req:   thermalsched.Request{Flow: thermalsched.FlowCampaign, Policy: "thermal"},
			field: "policy",
			cli:   []string{"-flow", "campaign", "-policy", "thermal"},
		},
		{
			name: "includeGantt on a generate request",
			req: thermalsched.Request{Flow: thermalsched.FlowGenerate,
				Scenario: &thermalsched.ScenarioSpec{Graph: thermalsched.ScenarioGraphParams{Tasks: 10}}, IncludeGantt: true},
			field: "includeGantt",
			cli:   []string{"-flow", "generate", "-tasks", "10", "-gantt"},
		},
		{
			name: "negative campaign scenarios",
			req: thermalsched.Request{Flow: thermalsched.FlowCampaign,
				Campaign: &thermalsched.CampaignSpec{Scenarios: -1}},
			field: "campaign.scenarios",
			cli:   []string{"-flow", "campaign", "-scenarios", "-1"},
		},
		{
			name: "unknown campaign policy",
			req: thermalsched.Request{Flow: thermalsched.FlowCampaign,
				Campaign: &thermalsched.CampaignSpec{Policies: []string{"nope"}}},
			field: "campaign.policies",
			cli:   []string{"-flow", "campaign", "-policies", "nope"},
		},
		{
			name: "negative stream retryAfter",
			req: thermalsched.Request{Flow: thermalsched.FlowStream, Stream: &thermalsched.StreamSpec{
				Seed: 1, SupervisorSpec: thermalsched.SupervisorSpec{RetryAfter: -1}}},
			field: "stream.retryAfter",
			cli:   []string{"-flow", "stream", "-seed", "1", "-retryafter", "-1"},
		},
		// A zigzag gap past MaxInt64 steps once converted to a negative
		// int, clamped to one step and silently ran a one-step gap; the
		// gap is now capped at MaxInt32 steps of the spec's dt.
		simulateCase("simulate coolTime past MaxInt32 steps", thermalsched.SimulateSpec{Controller: "zigzag",
			SupervisorSpec: thermalsched.SupervisorSpec{CoolTime: 1e19}}, "simulate.coolTime",
			[]string{"-controller", "zigzag", "-cooltime", "1e19"}),
		{
			name: "stream coolTime past MaxInt32 steps",
			req: thermalsched.Request{Flow: thermalsched.FlowStream, Policy: thermalsched.StreamPolicyZigzag,
				Stream: &thermalsched.StreamSpec{Seed: 1, SupervisorSpec: thermalsched.SupervisorSpec{CoolTime: 1e19}}},
			field: "stream.coolTime",
			cli:   []string{"-flow", "stream", "-seed", "1", "-policy", "zigzag", "-cooltime", "1e19"},
		},
		campaignSimulateCase("campaign simulate coolTime past MaxInt32 steps", thermalsched.SimulateSpec{
			SupervisorSpec: thermalsched.SupervisorSpec{CoolTime: 1e19}}, "campaign.simulate.coolTime",
			[]string{"-cooltime", "1e19"}),
		{
			name: "campaign stream coolTime past MaxInt32 steps",
			req: thermalsched.Request{Flow: thermalsched.FlowCampaign, Campaign: &thermalsched.CampaignSpec{
				Stream: &thermalsched.StreamSpec{SupervisorSpec: thermalsched.SupervisorSpec{CoolTime: 1e19}}}},
			field: "campaign.stream.coolTime",
			cli:   []string{"-flow", "campaign", "-stream", "-cooltime", "1e19"},
		},
		// A NaN or infinite float that no range check above covers once
		// passed Validate and then stalled the scheduler, failed inside
		// the graph builder, or ran to an absurd temperature.
		nanCase(validationCase{
			name: "NaN tempWeight",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform, Benchmark: "Bm1",
				TempWeight: ptr(math.NaN())},
			field: "tempWeight",
			cli:   []string{"-flow", "platform", "-benchmark", "Bm1", "-tempweight", "NaN"},
		}),
		nanCase(validationCase{
			name: "NaN scenario ccr",
			req: thermalsched.Request{Flow: thermalsched.FlowGenerate, Scenario: &thermalsched.ScenarioSpec{
				Seed: 3, Graph: thermalsched.ScenarioGraphParams{CCR: math.NaN()}}},
			field: "scenario.graph.ccr",
			cli:   []string{"-flow", "generate", "-seed", "3", "-ccr", "NaN"},
		}),
		nanCase(validationCase{
			name: "infinite busTimePerUnit",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform, Benchmark: "Bm1",
				BusTimePerUnit: math.Inf(1)},
			field: "busTimePerUnit",
		}),
		nanCase(validationCase{
			name:  "NaN graph deadline",
			req:   thermalsched.Request{Flow: thermalsched.FlowPlatform, Graph: nanGraph(math.NaN(), 1)},
			field: "graph.deadline",
		}),
		nanCase(validationCase{
			name:  "NaN graph edge data",
			req:   thermalsched.Request{Flow: thermalsched.FlowPlatform, Graph: nanGraph(100, math.NaN())},
			field: "graph.edges[0].data",
		}),
		nanCase(validationCase{
			name: "infinite scenario tightness",
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform, Scenario: &thermalsched.ScenarioSpec{
				Seed: 1, Graph: thermalsched.ScenarioGraphParams{Tightness: math.Inf(1)}}},
			field: "scenario.graph.tightness",
		}),
		nanCase(validationCase{
			name: "NaN stream arrival rate",
			req: thermalsched.Request{Flow: thermalsched.FlowStream, Stream: &thermalsched.StreamSpec{
				Seed: 1, Arrivals: thermalsched.StreamArrivalParams{Rate: math.NaN()}}},
			field: "stream.arrivals.rate",
		}),
		nanCase(validationCase{
			name: "NaN campaign template ccr",
			req: thermalsched.Request{Flow: thermalsched.FlowCampaign, Campaign: &thermalsched.CampaignSpec{
				Template: &thermalsched.ScenarioSpec{Graph: thermalsched.ScenarioGraphParams{CCR: math.NaN()}}}},
			field: "campaign.template.graph.ccr",
		}),
		// JSON cannot carry an infinite gap; Go callers and the CLI can.
		nanCase(simulateCase("infinite simulate coolTime", thermalsched.SimulateSpec{Controller: "zigzag",
			SupervisorSpec: thermalsched.SupervisorSpec{CoolTime: math.Inf(1)}}, "simulate.coolTime",
			[]string{"-controller", "zigzag", "-cooltime", "Inf"})),
		// A malformed inline graph once passed Validate and failed in
		// the flow with a plain error: a 500 on /v1/run and a journaled
		// failure on /v1/jobs. None has a CLI spelling: -graph files
		// fail in ReadGraph first.
		graphCase("inline graph with a 2-task cycle", "graph.edges", func(g *thermalsched.GraphSpec) {
			g.Edges = append(g.Edges, thermalsched.EdgeSpec{From: 1, To: 0})
		}),
		graphCase("inline task of an unknown type", "graph.tasks[1].type", func(g *thermalsched.GraphSpec) {
			g.Tasks[1].Type = 999
		}),
		graphCase("inline graph with no tasks", "graph.tasks", func(g *thermalsched.GraphSpec) {
			g.Tasks, g.Edges = nil, nil
		}),
		graphCase("inline task ID out of order", "graph.tasks[1]", func(g *thermalsched.GraphSpec) {
			g.Tasks[1].ID = 5
		}),
		graphCase("inline task with an empty name", "graph.tasks[0]", func(g *thermalsched.GraphSpec) {
			g.Tasks[0].Name = ""
		}),
		graphCase("inline task of a negative type", "graph.tasks[1]", func(g *thermalsched.GraphSpec) {
			g.Tasks[1].Type = -1
		}),
		graphCase("inline graph with a non-positive deadline", "graph.deadline", func(g *thermalsched.GraphSpec) {
			g.Deadline = 0
		}),
		graphCase("inline edge to a missing task", "graph.edges[0]", func(g *thermalsched.GraphSpec) {
			g.Edges[0].To = 7
		}),
		{
			// Once found only when the flow ran: /v1/jobs accepted it
			// and journaled a failure.
			name: "candidate PE type the library lacks",
			req: thermalsched.Request{Flow: thermalsched.FlowCoSynthesis,
				Benchmark: "Bm1", CandidateTypes: []string{"nope"}},
			field:   "candidateTypes",
			library: true,
		},
	}
}

// graphCase is a platform request on a valid two-task inline graph
// that edit breaks. A fault in a task's type is found against the
// engine's library.
func graphCase(name, field string, edit func(*thermalsched.GraphSpec)) validationCase {
	g := nanGraph(100, 1)
	edit(g)
	return validationCase{name: name, field: field, library: strings.HasSuffix(field, ".type"),
		req: thermalsched.Request{Flow: thermalsched.FlowPlatform, Graph: g}}
}

// nanGraph is a valid two-task inline graph with the given deadline
// and edge data.
func nanGraph(deadline, data float64) *thermalsched.GraphSpec {
	return &thermalsched.GraphSpec{Name: "g", Deadline: deadline,
		Tasks: []thermalsched.TaskSpec{{ID: 0, Name: "a", Type: 1}, {ID: 1, Name: "b", Type: 2}},
		Edges: []thermalsched.EdgeSpec{{From: 0, To: 1, Data: data}}}
}

// simulateCase is a Bm1 simulate request carrying spec; flags, when
// set, are the CLI spelling of spec.
func simulateCase(name string, spec thermalsched.SimulateSpec, field string, flags []string) validationCase {
	tc := validationCase{name: name, field: field, req: thermalsched.Request{Flow: thermalsched.FlowSimulate,
		Benchmark: "Bm1", Simulate: &spec}}
	if flags != nil {
		tc.cli = append([]string{"-flow", "simulate", "-benchmark", "Bm1"}, flags...)
	}
	return tc
}

// campaignSimulateCase is a closed-loop campaign carrying spec; flags,
// when set, are the CLI spelling of spec.
func campaignSimulateCase(name string, spec thermalsched.SimulateSpec, field string, flags []string) validationCase {
	tc := validationCase{name: name, field: field, req: thermalsched.Request{Flow: thermalsched.FlowCampaign,
		Campaign: &thermalsched.CampaignSpec{Simulate: &spec}}}
	if flags != nil {
		tc.cli = append([]string{"-flow", "campaign", "-cosim"}, flags...)
	}
	return tc
}

func TestValidationMessagesSharedAcrossSurfaces(t *testing.T) {
	engine, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(engine, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, tc := range validationCases() {
		// Canonical message and field from the library surface.
		_, verr := engine.Check(tc.req)
		if verr == nil {
			t.Errorf("%s: Check accepted the request", tc.name)
			continue
		}
		var fe *thermalsched.FieldError
		if !errors.As(verr, &fe) {
			t.Errorf("%s: %v is not a FieldError", tc.name, verr)
			continue
		}
		if fe.Field != tc.field {
			t.Errorf("%s: field %q, want %q", tc.name, fe.Field, tc.field)
		}
		if !strings.HasPrefix(verr.Error(), "thermalsched: invalid "+tc.field+":") {
			t.Errorf("%s: message %q does not follow the canonical shape", tc.name, verr)
		}
		// Validate is the same check without the library.
		switch err := tc.req.Validate(); {
		case tc.library && err != nil:
			t.Errorf("%s: Validate, which checks no library, rejected the request: %v", tc.name, err)
		case !tc.library && (err == nil || err.Error() != verr.Error()):
			t.Errorf("%s: Validate returned %v, want Check's %q", tc.name, err, verr)
		}
		if tc.noJSON {
			continue
		}

		// Every service surface answers 400 with the message verbatim
		// (a batch names the entry first) plus the field name.
		blob, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []struct {
			path   string
			body   []byte
			prefix string
		}{
			{"/v1/run", blob, ""},
			{"/v1/batch", append(append([]byte("["), blob...), ']'), "service: batch entry 0: "},
			{"/v1/jobs", blob, ""},
		} {
			resp, err := http.Post(srv.URL+s.path, "application/json", bytes.NewReader(s.body))
			if err != nil {
				t.Fatal(err)
			}
			var body struct {
				Error string `json:"error"`
				Field string `json:"field"`
			}
			err = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: %s status %d, want 400", tc.name, s.path, resp.StatusCode)
			}
			if body.Error != s.prefix+verr.Error() {
				t.Errorf("%s: %s message %q diverges from Check's %q", tc.name, s.path, body.Error, verr)
			}
			if body.Field != tc.field {
				t.Errorf("%s: %s field %q, want %q", tc.name, s.path, body.Field, tc.field)
			}
		}
	}
	// A rejected submit creates no job.
	if st := svc.Jobs().Stats(); st.Counters.Submitted != 0 || st.Counters.Evaluations != 0 {
		t.Errorf("rejected submits created jobs: %+v", st.Counters)
	}
}

// The CLI prints the same canonical text on its stderr. Subprocess
// round-trips are slow, so this covers the cases whose flags map
// directly (a case with no cli flags has no CLI spelling); -short
// skips it like the other subprocess suites.
func TestValidationMessagesMatchCLI(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI subprocess skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	engine, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range validationCases() {
		if tc.cli == nil {
			continue
		}
		_, verr := engine.Check(tc.req)
		if verr == nil {
			t.Fatalf("%s: Check accepted the request", tc.name)
		}
		out, err := exec.Command("go", append([]string{"run", "./cmd/thermsched"}, tc.cli...)...).CombinedOutput()
		if err == nil {
			t.Errorf("%s: CLI accepted invalid flags %v", tc.name, tc.cli)
			continue
		}
		if !strings.Contains(string(out), verr.Error()) {
			t.Errorf("%s: CLI output does not carry the canonical message\n  want %q\n  got  %s", tc.name, verr, out)
		}
	}
}
