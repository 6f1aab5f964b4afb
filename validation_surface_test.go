package thermalsched_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"strings"
	"testing"

	"thermalsched"
	"thermalsched/internal/service"
)

// One validation message per surface is the consolidation contract:
// Request.Validate's typed field error is the text the service's 400
// body carries verbatim (plus the machine-readable field name), and
// the text the CLI prints to stderr. These cases cover the redesigned
// flows — each names the request shape, the expected field and the CLI
// flags that reproduce it.
func validationCases() []struct {
	name  string
	req   thermalsched.Request
	field string
	cli   []string
} {
	return []struct {
		name  string
		req   thermalsched.Request
		field string
		cli   []string
	}{
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
			name: `solver "pcg"`,
			req: thermalsched.Request{Flow: thermalsched.FlowPlatform,
				Benchmark: "Bm1", Policy: "thermal", Solver: "pcg"},
			field: "solver",
			cli:   []string{"-flow", "platform", "-benchmark", "Bm1", "-solver", "pcg"},
		},
		{
			name: "negative tempWeight",
			req: thermalsched.NewRequest(thermalsched.FlowPlatform,
				thermalsched.WithBenchmark("Bm1"), thermalsched.WithTempWeight(-1)),
			field: "tempWeight",
			cli:   []string{"-flow", "platform", "-benchmark", "Bm1", "-tempweight", "-1"},
		},
		{
			name: "negative powerWeight",
			req: thermalsched.NewRequest(thermalsched.FlowPlatform, thermalsched.WithBenchmark("Bm1"),
				thermalsched.WithPolicy(thermalsched.MinTaskPower), thermalsched.WithPowerWeight(-1)),
			field: "powerWeight",
		},
		{
			name: "negative energyWeight",
			req: thermalsched.NewRequest(thermalsched.FlowPlatform, thermalsched.WithBenchmark("Bm1"),
				thermalsched.WithPolicy(thermalsched.MinTaskEnergy), thermalsched.WithEnergyWeight(-1)),
			field: "energyWeight",
		},
		{
			name:  "negative sweep count",
			req:   thermalsched.Request{Flow: thermalsched.FlowSweep, Policy: "thermal", SweepCount: -3},
			field: "sweepCount",
			cli:   []string{"-flow", "sweep", "-count", "-3"},
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
	}
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
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	for _, tc := range validationCases() {
		// Canonical message and field from the library surface.
		verr := tc.req.Validate()
		if verr == nil {
			t.Errorf("%s: Validate accepted the request", tc.name)
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

		// The service 400 body carries the message verbatim plus the
		// field name.
		blob, err := json.Marshal(tc.req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(blob))
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
			t.Errorf("%s: service status %d, want 400", tc.name, resp.StatusCode)
		}
		if body.Error != verr.Error() {
			t.Errorf("%s: service message %q diverges from Validate's %q", tc.name, body.Error, verr)
		}
		if body.Field != tc.field {
			t.Errorf("%s: service field %q, want %q", tc.name, body.Field, tc.field)
		}
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
	for _, tc := range validationCases() {
		if tc.cli == nil {
			continue
		}
		verr := tc.req.Validate()
		if verr == nil {
			t.Fatalf("%s: Validate accepted the request", tc.name)
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
