package thermalsched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"

	"thermalsched"
	"thermalsched/internal/service"
)

// cliDir holds the thermsched binary the CLI tests run; TestMain
// removes it.
var cliDir string

func TestMain(m *testing.M) {
	code := m.Run()
	if cliDir != "" {
		os.RemoveAll(cliDir)
	}
	os.Exit(code)
}

// buildCLI builds cmd/thermsched once per test binary.
var buildCLI = sync.OnceValues(func() (string, error) {
	dir, err := os.MkdirTemp("", "thermsched-cli")
	if err != nil {
		return "", err
	}
	cliDir = dir
	bin := filepath.Join(dir, "thermsched")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/thermsched").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building thermsched: %v\n%s", err, out)
	}
	return bin, nil
})

// runCLI runs the thermsched binary with args and returns its stdout
// and stderr; err is non-nil when it exits non-zero. -short and a
// missing go toolchain skip the caller.
func runCLI(t *testing.T, stdin []byte, args ...string) (stdout, stderr []byte, err error) {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI subprocess skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
	}
	bin, err := buildCLI()
	if err != nil {
		t.Fatal(err)
	}
	var out, errOut bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdin, cmd.Stdout, cmd.Stderr = bytes.NewReader(stdin), &out, &errOut
	err = cmd.Run()
	return out.Bytes(), errOut.Bytes(), err
}

// A flow must round-trip identically through every surface: Engine.Run
// in-process, POST /v1/run over the service, and the CLI's -json mode
// all emit the same Response for the same seeded request (modulo the
// wall-clock elapsedMs field). crossSurface runs that check for one
// request, handing the CLI the JSON body the service gets.
func crossSurface(t *testing.T, req thermalsched.Request) {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI subprocess skipped in -short mode")
	}

	normalize := func(resp *thermalsched.Response) string {
		resp.ElapsedMS = 0
		blob, err := json.Marshal(resp)
		if err != nil {
			t.Fatal(err)
		}
		return string(blob)
	}

	// Surface 1: in-process Engine.
	engine, err := thermalsched.NewEngine()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := engine.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON := normalize(direct)

	// Surface 2: the HTTP service.
	svc, err := service.New(engine, service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(srv.URL+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("service status %d", httpResp.StatusCode)
	}
	var served thermalsched.Response
	if err := json.NewDecoder(httpResp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if got := normalize(&served); got != wantJSON {
		t.Errorf("service response diverges from Engine.Run:\n  engine  %s\n  service %s", wantJSON, got)
	}

	// Surface 3: the CLI's -json mode.
	out, stderr, err := runCLI(t, nil, "-json", string(body))
	if err != nil {
		t.Fatalf("CLI failed: %v\n%s", err, stderr)
	}
	var cli thermalsched.Response
	if err := json.Unmarshal(out, &cli); err != nil {
		t.Fatalf("decoding CLI output: %v\n%s", err, out)
	}
	if got := normalize(&cli); got != wantJSON {
		t.Errorf("CLI response diverges from Engine.Run:\n  engine %s\n  cli    %s", wantJSON, got)
	}
}

func TestSimulateResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t, thermalsched.Request{Flow: thermalsched.FlowSimulate,
		Benchmark: "Bm2",
		Policy:    "thermal",
		Simulate:  &thermalsched.SimulateSpec{Replicas: 3, Seed: 5, MinFactor: 0.8},
	})
}

func TestGenerateResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t, thermalsched.Request{Flow: thermalsched.FlowGenerate,
		Scenario: &thermalsched.ScenarioSpec{
			Seed: 11,
			Graph: thermalsched.ScenarioGraphParams{
				Tasks: 35, Shape: thermalsched.ScenarioShapeSeriesParallel, BranchDensity: 0.4,
			},
			Platform: thermalsched.ScenarioPlatformParams{
				PEs: 6, MinSpeed: 0.6, MaxSpeed: 2.0,
			},
		},
	})
}

// The proactive controller kinds must round-trip like the reactive
// ones: same spec (admission knobs included), same denials count, same
// bytes on every surface.
func TestSimulateAdmitResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t, thermalsched.Request{Flow: thermalsched.FlowSimulate,
		Benchmark: "Bm2",
		Policy:    "thermal",
		Simulate: &thermalsched.SimulateSpec{
			Controller: "admit", Replicas: 3, Seed: 5, MinFactor: 0.8, WarmStart: true,
		},
	})
}

func TestSimulateZigzagResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t, thermalsched.Request{Flow: thermalsched.FlowSimulate,
		Benchmark: "Bm2",
		Policy:    "thermal",
		Simulate: &thermalsched.SimulateSpec{
			Controller: "zigzag", Replicas: 2, Seed: 5, MinFactor: 0.8, WarmStart: true,
			SupervisorSpec: thermalsched.SupervisorSpec{CoolTime: 3},
		},
	})
}

func TestStreamAdmitResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t, thermalsched.Request{Flow: thermalsched.FlowStream,
		Policy: thermalsched.StreamPolicyAdmit,
		Stream: &thermalsched.StreamSpec{
			Seed: 3, MinFactor: 0.8, Replicas: 2,
		},
	})
}

func TestStreamResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t, thermalsched.Request{Flow: thermalsched.FlowStream,
		Stream: &thermalsched.StreamSpec{
			Seed: 3, MinFactor: 0.8, Replicas: 2,
		},
	})
}

func TestCampaignResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t, thermalsched.Request{Flow: thermalsched.FlowCampaign,
		Campaign: &thermalsched.CampaignSpec{
			Scenarios: 4,
			Seed:      9,
			MinTasks:  20,
			MaxTasks:  40,
			Policies:  []string{"h3", "thermal"},
		},
	})
}
