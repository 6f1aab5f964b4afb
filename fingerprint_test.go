package thermalsched

import (
	"encoding/json"
	"reflect"
	"testing"
)

// fpBase is a request exercising every scalar knob with a non-default
// value, so per-field perturbations are visible against it.
func fpBase() Request {
	w := 1.5
	return Request{
		Flow:                 FlowCoSynthesis,
		Benchmark:            "Bm1",
		Policy:               "thermal",
		BusTimePerUnit:       0.2,
		TempWeight:           &w,
		MaxPEs:               5,
		CandidateTypes:       []string{"pe1", "pe2"},
		FloorplanGenerations: 12,
		SweepCount:           3,
		IncludeGantt:         true,
	}
}

// Every semantic Request field must move the fingerprint; Parallelism
// must not (results are byte-identical at every parallelism level, so
// requests differing only there coalesce).
func TestRequestFingerprintSensitivity(t *testing.T) {
	base := fpBase()
	again := fpBase()
	fp := base.Fingerprint()
	if fp != again.Fingerprint() {
		t.Fatal("equal requests produced different fingerprints")
	}

	seed0, seed2 := int64(0), int64(2)
	w2 := 2.5
	variants := map[string]Request{
		"Flow":                 func(r Request) Request { r.Flow = FlowPlatform; return r }(base),
		"Benchmark":            func(r Request) Request { r.Benchmark = "Bm2"; return r }(base),
		"Policy":               func(r Request) Request { r.Policy = "h1"; return r }(base),
		"Solver":               func(r Request) Request { r.Solver = "sparse"; return r }(base),
		"BusTimePerUnit":       func(r Request) Request { r.BusTimePerUnit = 0.3; return r }(base),
		"TempWeight":           func(r Request) Request { r.TempWeight = &w2; return r }(base),
		"TempWeight-nil":       func(r Request) Request { r.TempWeight = nil; return r }(base),
		"PowerWeight":          func(r Request) Request { r.PowerWeight = &w2; return r }(base),
		"EnergyWeight":         func(r Request) Request { r.EnergyWeight = &w2; return r }(base),
		"ThermalHorizon":       func(r Request) Request { r.ThermalHorizon = &w2; return r }(base),
		"MaxPEs":               func(r Request) Request { r.MaxPEs = 6; return r }(base),
		"CandidateTypes":       func(r Request) Request { r.CandidateTypes = []string{"pe1"}; return r }(base),
		"FloorplanGenerations": func(r Request) Request { r.FloorplanGenerations = 13; return r }(base),
		"SweepCount":           func(r Request) Request { r.SweepCount = 4; return r }(base),
		"IncludeGantt":         func(r Request) Request { r.IncludeGantt = false; return r }(base),
		"Seed-explicit-zero":   func(r Request) Request { r.Seed = &seed0; return r }(base),
		"Seed-two":             func(r Request) Request { r.Seed = &seed2; return r }(base),
		"Graph": func(r Request) Request {
			r.Graph = &GraphSpec{Name: "g", Deadline: 10,
				Tasks: []TaskSpec{{ID: 0, Name: "t0", Type: 1}},
			}
			return r
		}(base),
		"Scenario": func(r Request) Request {
			r.Scenario = &ScenarioSpec{Seed: 7, Graph: ScenarioGraphParams{Tasks: 30}}
			return r
		}(base),
		"Simulate": func(r Request) Request { r.Simulate = &SimulateSpec{Replicas: 2}; return r }(base),
		"Campaign": func(r Request) Request { r.Campaign = &CampaignSpec{Scenarios: 3}; return r }(base),
	}
	seen := map[string]string{fp: "base"}
	for name, req := range variants {
		got := req.Fingerprint()
		if prev, dup := seen[got]; dup {
			t.Errorf("perturbing %s collides with %s (fingerprint %s)", name, prev, got)
			continue
		}
		seen[got] = name
	}

	par := base
	par.Parallelism = 4
	if par.Fingerprint() != fp {
		t.Error("Parallelism moved the fingerprint; requests differing only in parallelism must coalesce")
	}
}

// The documented canonicalizations: nil Seed is seed 1; nil and
// zero-valued Simulate specs are the calibrated defaults; campaign
// spec defaults are normalized; but a campaign's Simulate presence is
// semantic and an explicit seed 0 is not seed 1.
func TestRequestFingerprintNormalization(t *testing.T) {
	a := NewRequest(FlowSweep)
	b := NewRequest(FlowSweep, WithSeed(1))
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("nil seed and explicit seed 1 must share a fingerprint")
	}
	zero := NewRequest(FlowSweep, WithSeed(0))
	if zero.Fingerprint() == a.Fingerprint() {
		t.Error("explicit seed 0 collapsed into the nil-seed default")
	}

	simNil := NewRequest(FlowSimulate, WithBenchmark("Bm1"))
	simZero := NewRequest(FlowSimulate, WithBenchmark("Bm1"), WithSimulate(SimulateSpec{}))
	if simNil.Fingerprint() != simZero.Fingerprint() {
		t.Error("nil and zero simulate specs must share a fingerprint")
	}

	cmpNil := NewRequest(FlowCampaign)
	cmpZero := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{}))
	cmpDefault := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Scenarios: 8}))
	if cmpNil.Fingerprint() != cmpZero.Fingerprint() || cmpNil.Fingerprint() != cmpDefault.Fingerprint() {
		t.Error("nil, zero and explicitly-default campaign specs must share a fingerprint")
	}
	cmpSim := NewRequest(FlowCampaign, WithCampaign(CampaignSpec{Simulate: &SimulateSpec{}}))
	if cmpSim.Fingerprint() == cmpNil.Fingerprint() {
		t.Error("a campaign with closed-loop simulation fingerprints like the static campaign")
	}
}

// Field coverage of Fingerprint is enforced statically by the
// thermalvet fpfields analyzer against the //thermalvet:serializes
// registrations on the serializer (run `go run ./cmd/thermalvet .`).
// This keeps one slim runtime pin on the top-level Request as
// belt-and-braces for builds that skip vet.
func TestRequestFingerprintCoversFields(t *testing.T) {
	if n := reflect.TypeOf(Request{}).NumField(); n != 21 {
		t.Errorf("Request now has %d fields (pinned 21); extend Request.Fingerprint's explicit serialization (fpfields enforces the rest)", n)
	}
}

// Graph content must be fully covered: task and edge perturbations all
// move the fingerprint.
func TestRequestFingerprintGraphSensitivity(t *testing.T) {
	mk := func(mut func(*GraphSpec)) string {
		g := &GraphSpec{Name: "g", Deadline: 10,
			Tasks: []TaskSpec{{ID: 0, Name: "a", Type: 1}, {ID: 1, Name: "b", Type: 2}},
			Edges: []EdgeSpec{{From: 0, To: 1, Data: 5, Prob: 0.5}},
		}
		mut(g)
		r := NewRequest(FlowPlatform, WithGraphSpec(g))
		return r.Fingerprint()
	}
	base := mk(func(*GraphSpec) {})
	muts := map[string]func(*GraphSpec){
		"name":      func(g *GraphSpec) { g.Name = "h" },
		"deadline":  func(g *GraphSpec) { g.Deadline = 11 },
		"task-id":   func(g *GraphSpec) { g.Tasks[1].ID = 2 },
		"task-name": func(g *GraphSpec) { g.Tasks[1].Name = "c" },
		"task-type": func(g *GraphSpec) { g.Tasks[1].Type = 3 },
		"edge-from": func(g *GraphSpec) { g.Edges[0].From = 1 },
		"edge-to":   func(g *GraphSpec) { g.Edges[0].To = 0 },
		"edge-data": func(g *GraphSpec) { g.Edges[0].Data = 6 },
		"edge-prob": func(g *GraphSpec) { g.Edges[0].Prob = 0.6 },
	}
	for name, mut := range muts {
		if mk(mut) == base {
			t.Errorf("perturbing graph %s did not change the fingerprint", name)
		}
	}
}

// fullSimulateSpec sets every SimulateSpec field to a non-default
// value. Fields are assigned one by one rather than through a
// composite literal, so the helper does not depend on how the spec
// groups its supervisor knobs.
func fullSimulateSpec() SimulateSpec {
	var s SimulateSpec
	s.Controller = "admit"
	s.TriggerC, s.Hysteresis, s.Throttle = 81, 1.5, 0.45
	s.SetpointC, s.Kp, s.Ki, s.MinScale = 79, 0.06, 0.003, 0.2
	s.FairC, s.SeriousC, s.CriticalC = 70, 78, 86
	s.SeriousScale, s.CriticalScale = 0.65, 0.35
	s.RetryAfter, s.CoolTime = 3, 4
	s.DT, s.TimeScale = 0.5, 0.05
	s.MinFactor, s.Seed = 0.8, 9
	s.Conditional, s.WarmStart = true, true
	s.Replicas = 3
	return s
}

// fullStreamSpec does the same for StreamSpec.
func fullStreamSpec() StreamSpec {
	var s StreamSpec
	s.Name = "pinned"
	s.Seed = 4
	s.Arrivals = StreamArrivalParams{Horizon: 300, Sources: 2, Rate: 0.1, BurstMean: 2, Laxity: 3}
	s.Platform = ScenarioPlatformParams{PEs: 6, MinSpeed: 0.5, MaxSpeed: 2, Layout: "row"}
	s.DT, s.TimeScale = 0.5, 0.05
	s.MinFactor, s.SimSeed = 0.8, 6
	s.Replicas = 2
	s.FairC, s.SeriousC, s.CriticalC = 70, 78, 86
	s.SeriousScale, s.CriticalScale = 0.65, 0.35
	s.RetryAfter, s.Hysteresis, s.CoolTime = 3, 1.5, 4
	return s
}

// Request fingerprints are persistent: the async job tier coalesces a
// resubmitted request onto a journaled result by fingerprint, across
// restarts. These requests set every supervisor knob (and the defaulted
// forms), so any change to a spec's serialization or defaults that
// moves a key shows up here by name.
func TestRequestFingerprintPinned(t *testing.T) {
	sim := fullSimulateSpec()
	st := fullStreamSpec()
	campSim := fullSimulateSpec()
	campSim.Controller = ""
	cases := []struct {
		name string
		req  Request
		want string
	}{
		{"simulate-full", NewRequest(FlowSimulate, WithBenchmark("Bm2"), WithSimulate(sim)), "11bd1f96192998a9"},
		{"simulate-default", NewRequest(FlowSimulate, WithBenchmark("Bm1")), "000aad43dc28491c"},
		{"stream-full", NewRequest(FlowStream, WithStream(st),
			func(r *Request) { r.Policy = StreamPolicyAdmit }), "802d84aa293f6876"},
		{"stream-default", NewRequest(FlowStream, WithStream(StreamSpec{Seed: 1})), "180e8458509f84e6"},
		{"campaign-simulate", NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
			Scenarios: 3, Seed: 2, Policies: []string{"thermal"},
			Controllers: []string{"toggle", "admit", "zigzag"}, Simulate: &campSim})), "8f92797d52627164"},
		{"campaign-stream", NewRequest(FlowCampaign, WithCampaign(CampaignSpec{
			Scenarios: 2, Seed: 7, Policies: []string{"greedy", "admit"}, Stream: &st})), "41de1c986a4f6835"},
	}
	for _, tc := range cases {
		if err := tc.req.Validate(); err != nil {
			t.Errorf("%s: pinned request is invalid: %v", tc.name, err)
		}
		if got := tc.req.Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %s, pinned %s", tc.name, got, tc.want)
		}
	}
}

// The supervisor knobs keep their flat JSON keys: a fully populated
// spec marshals to this JSON object (compared as an object, so key
// order is free), and the object decodes back to an equal spec.
func TestSupervisorSpecWire(t *testing.T) {
	cases := []struct {
		name string
		spec any
		back func([]byte) (any, error)
		want string
	}{
		{"simulate", fullSimulateSpec(), func(b []byte) (any, error) {
			var s SimulateSpec
			err := json.Unmarshal(b, &s)
			return s, err
		}, `{"controller":"admit","triggerC":81,"hysteresis":1.5,"throttle":0.45,"setpointC":79,"kp":0.06,"ki":0.003,"minScale":0.2,"fairC":70,"seriousC":78,"criticalC":86,"seriousScale":0.65,"criticalScale":0.35,"retryAfter":3,"coolTime":4,"dt":0.5,"timeScale":0.05,"minFactor":0.8,"seed":9,"conditional":true,"warmStart":true,"replicas":3}`},
		{"stream", fullStreamSpec(), func(b []byte) (any, error) {
			var s StreamSpec
			err := json.Unmarshal(b, &s)
			return s, err
		}, `{"name":"pinned","seed":4,"arrivals":{"horizon":300,"sources":2,"rate":0.1,"burstMean":2,"laxity":3},"platform":{"pes":6,"minSpeed":0.5,"maxSpeed":2,"layout":"row"},"dt":0.5,"timeScale":0.05,"minFactor":0.8,"simSeed":6,"replicas":2,"fairC":70,"seriousC":78,"criticalC":86,"seriousScale":0.65,"criticalScale":0.35,"retryAfter":3,"hysteresis":1.5,"coolTime":4}`},
	}
	for _, tc := range cases {
		blob, err := json.Marshal(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		var got, want map[string]any
		if err := json.Unmarshal(blob, &got); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal([]byte(tc.want), &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s spec JSON\n  got  %s\n  want %s", tc.name, blob, tc.want)
		}
		back, err := tc.back([]byte(tc.want))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(back, tc.spec) {
			t.Errorf("%s spec JSON decodes to %+v, want %+v", tc.name, back, tc.spec)
		}
	}
}
