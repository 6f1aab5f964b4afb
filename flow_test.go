package thermalsched

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// Every key a registry row lists must name a real Request field, so a
// typo cannot silently leave a knob rejected on its own flow.
func TestFlowReadsAreRequestKeys(t *testing.T) {
	for _, fs := range flowRegistry {
		for _, key := range fs.reads {
			if key == "flow" || !slices.Contains(requestKeys, key) {
				t.Errorf("%s row lists %q, not a Request knob", fs.kind, key)
			}
		}
		if len(slices.Compact(slices.Sorted(slices.Values(fs.reads)))) != len(fs.reads) {
			t.Errorf("%s row lists a key twice: %v", fs.kind, fs.reads)
		}
	}
}

// A Request field no flow reads would be rejected on every flow: dead
// wire surface.
func TestEveryRequestFieldIsRead(t *testing.T) {
	for _, key := range requestKeys {
		if key == "flow" {
			continue
		}
		read := false
		for _, fs := range flowRegistry {
			read = read || slices.Contains(fs.reads, key)
		}
		if !read {
			t.Errorf("no flow reads Request field %q", key)
		}
	}
}

// validFieldValue returns a value for the Request field with the given
// JSON key that passes Validate on any flow that reads it.
func validFieldValue(t *testing.T, kind FlowKind, key string) any {
	switch key {
	case "benchmark":
		return "Bm1"
	case "graph":
		return &GraphSpec{Name: "g", Deadline: 100, Tasks: []TaskSpec{{ID: 0, Name: "t0"}}}
	case "scenario":
		return &ScenarioSpec{}
	case "policy":
		if kind == FlowStream {
			return StreamPolicyCoolest
		}
		return "h3"
	case "busTimePerUnit":
		return 0.5
	case "tempWeight", "powerWeight", "energyWeight", "thermalHorizon":
		return ptr(2.0)
	case "maxPEs", "floorplanGenerations", "parallelism":
		return 3
	case "candidateTypes":
		return []string{"cpu"}
	case "seed":
		return ptr(int64(0))
	case "simulate":
		return &SimulateSpec{Replicas: 2}
	case "campaign":
		return &CampaignSpec{Scenarios: 2}
	case "stream":
		return &StreamSpec{Seed: 2}
	case "includeGantt":
		return true
	}
	t.Fatalf("no sample value for Request field %q", key)
	return nil
}

// minimalRequests holds each flow's smallest valid request.
func minimalRequests() map[FlowKind]Request {
	return map[FlowKind]Request{
		FlowPlatform:    {Flow: FlowPlatform, Benchmark: "Bm1"},
		FlowCoSynthesis: {Flow: FlowCoSynthesis, Benchmark: "Bm1"},
		FlowSimulate:    {Flow: FlowSimulate, Benchmark: "Bm1"},
		FlowGenerate:    {Flow: FlowGenerate, Scenario: &ScenarioSpec{}},
		FlowCampaign:    {Flow: FlowCampaign},
		FlowStream:      {Flow: FlowStream, Stream: &StreamSpec{Seed: 1}},
	}
}

// Validate checks the canonical form, so canonical() must set no field
// outside the flow's registry row: a default written into a field the
// row omits would fail every request of that flow.
func TestCanonicalSetsOnlyFieldsTheFlowReads(t *testing.T) {
	base := minimalRequests()
	for _, fs := range flowRegistry {
		req, ok := base[fs.kind]
		if !ok {
			t.Fatalf("no minimal request for flow %s", fs.kind)
		}
		c := req.canonical()
		v := reflect.ValueOf(c)
		for i, key := range requestKeys {
			if key != "flow" && !slices.Contains(fs.reads, key) && !v.Field(i).IsZero() {
				t.Errorf("%s: canonical() sets %s, which the flow does not read", fs.kind, key)
			}
		}
		if err := c.validate(); err != nil {
			t.Errorf("%s: canonical form of the minimal request is invalid: %v", fs.kind, err)
		}
	}
}

// On every flow, setting a Request field other than flow passes
// Validate if and only if the flow's registry row lists it; a field the
// row omits is a FieldError on that field ("input" for a foreign
// workload).
func TestValidateAcceptsExactlyTheFieldsEachFlowReads(t *testing.T) {
	base := minimalRequests()
	for _, kind := range FlowKinds() {
		req, ok := base[kind]
		if !ok {
			t.Fatalf("no base request for flow %s", kind)
		}
		if err := req.Validate(); err != nil {
			t.Fatalf("%s base request rejected: %v", kind, err)
		}
		fs, _ := flowFor(kind)
		for i, key := range requestKeys {
			if key == "flow" {
				continue
			}
			r := req
			v := reflect.ValueOf(&r).Elem()
			if slices.Contains(inputKeys, key) && len(fs.inputs) > 0 {
				// Swap the base workload out: the flow takes exactly one.
				for j, k := range requestKeys {
					if slices.Contains(inputKeys, k) {
						v.Field(j).SetZero()
					}
				}
			}
			v.Field(i).Set(reflect.ValueOf(validFieldValue(t, kind, key)))
			err := r.Validate()
			if slices.Contains(fs.reads, key) {
				if err != nil {
					t.Errorf("%s reads %s but rejects it: %v", kind, key, err)
				}
				continue
			}
			want := key
			if slices.Contains(inputKeys, key) {
				want = "input"
			}
			var fe *FieldError
			if !errors.As(err, &fe) || fe.Field != want {
				t.Errorf("%s does not read %s: got %v, want a FieldError on %q", kind, key, err, want)
			}
		}
	}
}

// The co-simulation, controller and supervisor knobs must reject NaN,
// which every comparison fails and a plain out-of-range test therefore
// lets through; each error names its path.
func TestSimulateRequestValidation(t *testing.T) {
	nan := math.NaN()
	cases := []struct {
		name  string
		spec  SimulateSpec
		field string
	}{
		{"NaN minFactor", SimulateSpec{MinFactor: nan}, "simulate.minFactor"},
		{"NaN dt", SimulateSpec{DT: nan}, "simulate.dt"},
		{"NaN timeScale", SimulateSpec{TimeScale: nan}, "simulate.timeScale"},
		{"negative timeScale", SimulateSpec{TimeScale: -1}, "simulate.timeScale"},
		{"minFactor above 1", SimulateSpec{MinFactor: 1.5}, "simulate.minFactor"},
		{"negative replicas", SimulateSpec{Replicas: -1}, "simulate.replicas"},
		{"replicas over the cap", SimulateSpec{Replicas: MaxSimulateReplicas + 1}, "simulate.replicas"},
		// The controller and supervisor knobs, NaN once stalling the run
		// or finishing on NaN arithmetic.
		{"NaN triggerC", SimulateSpec{TriggerC: nan}, "simulate.triggerC"},
		{"infinite triggerC", SimulateSpec{TriggerC: math.Inf(1)}, "simulate.triggerC"},
		{"NaN throttle", SimulateSpec{Throttle: nan}, "simulate.throttle"},
		{"NaN setpointC", SimulateSpec{Controller: "pi", SetpointC: nan}, "simulate.setpointC"},
		{"NaN kp", SimulateSpec{Controller: "pi", Kp: nan}, "simulate.kp"},
		{"NaN ki", SimulateSpec{Controller: "pi", Ki: nan}, "simulate.ki"},
		{"NaN minScale", SimulateSpec{Controller: "pi", MinScale: nan}, "simulate.minScale"},
		{"NaN hysteresis", SimulateSpec{SupervisorSpec: SupervisorSpec{Hysteresis: nan}}, "simulate.hysteresis"},
		{"NaN fairC", SimulateSpec{SupervisorSpec: SupervisorSpec{FairC: nan}}, "simulate.fairC"},
		{"NaN seriousScale", SimulateSpec{SupervisorSpec: SupervisorSpec{SeriousScale: nan}}, "simulate.seriousScale"},
		{"NaN criticalScale", SimulateSpec{SupervisorSpec: SupervisorSpec{CriticalScale: nan}}, "simulate.seriousScale"},
		{"NaN retryAfter", SimulateSpec{SupervisorSpec: SupervisorSpec{RetryAfter: nan}}, "simulate.retryAfter"},
		{"NaN coolTime", SimulateSpec{SupervisorSpec: SupervisorSpec{CoolTime: nan}}, "simulate.coolTime"},
	}
	for _, tc := range cases {
		req := Request{Flow: FlowSimulate, Benchmark: "Bm1", Simulate: &tc.spec}
		var fe *FieldError
		if err := req.Validate(); !errors.As(err, &fe) || fe.Field != tc.field {
			t.Errorf("%s: got %v, want a FieldError on %q", tc.name, err, tc.field)
		}
	}
	ok := Request{Flow: FlowSimulate, Benchmark: "Bm1",
		Simulate: &SimulateSpec{DT: 0.5, TimeScale: 0.2, MinFactor: 1, Replicas: MaxSimulateReplicas}}
	if err := ok.Validate(); err != nil {
		t.Errorf("valid simulate request rejected: %v", err)
	}
}

// README's flow × field table is the registry rendered: a row edit
// that leaves the table stale fails here.
func TestReadmeFlowFieldTable(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("<!-- flow-field-table -->\n| Field |")
	for _, fs := range flowRegistry {
		fmt.Fprintf(&b, " %s |", fs.kind)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(flowRegistry)) + "\n")
	for _, key := range requestKeys[1:] { // every field but flow
		fmt.Fprintf(&b, "| `%s` |", key)
		for _, fs := range flowRegistry {
			mark := ""
			if slices.Contains(fs.reads, key) {
				mark = "✓"
			}
			fmt.Fprintf(&b, " %s |", mark)
		}
		b.WriteString("\n")
	}
	b.WriteString("<!-- /flow-field-table -->\n")
	if !strings.Contains(string(readme), b.String()) {
		t.Errorf("README's flow × field table is stale; the registry renders it as:\n%s", b.String())
	}
}
