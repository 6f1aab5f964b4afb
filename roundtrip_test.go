package thermalsched_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"testing"

	"thermalsched"
	"thermalsched/internal/service"
)

// A flow must round-trip identically through every surface: Engine.Run
// in-process, POST /v1/run over the service, and the CLI's -json mode
// all emit the same Response for the same seeded request (modulo the
// wall-clock elapsedMs field). crossSurface runs that check for one
// request and its equivalent CLI invocation.
func crossSurface(t *testing.T, req thermalsched.Request, cliArgs []string) {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI subprocess skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not on PATH")
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
	out, err := exec.Command("go", append([]string{"run", "./cmd/thermsched"}, cliArgs...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("CLI failed: %v\n%s", err, out)
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
	crossSurface(t,
		thermalsched.NewRequest(thermalsched.FlowSimulate,
			thermalsched.WithBenchmark("Bm2"),
			thermalsched.WithPolicy(thermalsched.ThermalAware),
			thermalsched.WithSimulate(thermalsched.SimulateSpec{Replicas: 3, Seed: 5, MinFactor: 0.8}),
		),
		[]string{"-flow", "simulate", "-benchmark", "Bm2", "-policy", "thermal",
			"-replicas", "3", "-seed", "5", "-minfactor", "0.8", "-json"})
}

func TestGenerateResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t,
		thermalsched.NewRequest(thermalsched.FlowGenerate,
			thermalsched.WithScenario(thermalsched.ScenarioSpec{
				Seed: 11,
				Graph: thermalsched.ScenarioGraphParams{
					Tasks: 35, Shape: thermalsched.ScenarioShapeSeriesParallel, BranchDensity: 0.4,
				},
				Platform: thermalsched.ScenarioPlatformParams{
					PEs: 6, MinSpeed: 0.6, MaxSpeed: 2.0,
				},
			}),
		),
		[]string{"-flow", "generate", "-tasks", "35", "-shape", "series-parallel",
			"-branchfrac", "0.4", "-pes", "6", "-minspeed", "0.6", "-maxspeed", "2.0",
			"-seed", "11", "-json"})
}

// The proactive controller kinds must round-trip like the reactive
// ones: same spec (admission knobs included), same denials count, same
// bytes on every surface.
func TestSimulateAdmitResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t,
		thermalsched.NewRequest(thermalsched.FlowSimulate,
			thermalsched.WithBenchmark("Bm2"),
			thermalsched.WithPolicy(thermalsched.ThermalAware),
			thermalsched.WithSimulate(thermalsched.SimulateSpec{
				Controller: "admit", Replicas: 3, Seed: 5, MinFactor: 0.8, WarmStart: true,
			}),
		),
		[]string{"-flow", "simulate", "-benchmark", "Bm2", "-policy", "thermal",
			"-controller", "admit", "-warmstart",
			"-replicas", "3", "-seed", "5", "-minfactor", "0.8", "-json"})
}

func TestSimulateZigzagResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t,
		thermalsched.NewRequest(thermalsched.FlowSimulate,
			thermalsched.WithBenchmark("Bm2"),
			thermalsched.WithPolicy(thermalsched.ThermalAware),
			thermalsched.WithSimulate(thermalsched.SimulateSpec{
				Controller: "zigzag", Replicas: 2, Seed: 5, MinFactor: 0.8, WarmStart: true,
				SupervisorSpec: thermalsched.SupervisorSpec{CoolTime: 3},
			}),
		),
		[]string{"-flow", "simulate", "-benchmark", "Bm2", "-policy", "thermal",
			"-controller", "zigzag", "-warmstart", "-cooltime", "3",
			"-replicas", "2", "-seed", "5", "-minfactor", "0.8", "-json"})
}

func TestStreamAdmitResponseIdenticalAcrossSurfaces(t *testing.T) {
	req := thermalsched.NewRequest(thermalsched.FlowStream,
		thermalsched.WithStream(thermalsched.StreamSpec{
			Seed: 3, MinFactor: 0.8, Replicas: 2,
		}))
	req.Policy = thermalsched.StreamPolicyAdmit
	crossSurface(t, req,
		[]string{"-flow", "stream", "-policy", "admit", "-seed", "3",
			"-minfactor", "0.8", "-replicas", "2", "-json"})
}

func TestStreamResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t,
		thermalsched.NewRequest(thermalsched.FlowStream,
			thermalsched.WithStream(thermalsched.StreamSpec{
				Seed: 3, MinFactor: 0.8, Replicas: 2,
			}),
		),
		[]string{"-flow", "stream", "-seed", "3", "-minfactor", "0.8",
			"-replicas", "2", "-json"})
}

func TestCampaignResponseIdenticalAcrossSurfaces(t *testing.T) {
	crossSurface(t,
		thermalsched.NewRequest(thermalsched.FlowCampaign,
			thermalsched.WithCampaign(thermalsched.CampaignSpec{
				Scenarios: 4,
				Seed:      9,
				MinTasks:  20,
				MaxTasks:  40,
				Policies:  []string{"h3", "thermal"},
			}),
		),
		[]string{"-flow", "campaign", "-scenarios", "4", "-seed", "9",
			"-mintasks", "20", "-maxtasks", "40", "-policies", "h3,thermal", "-json"})
}
