// Command thermsched runs one Engine flow on a task graph and reports
// the schedule, power and steady-state temperatures. The default flow
// maps the graph onto the paper's 4-PE platform (Fig. 1b); -flow
// selects any registered Engine flow — the value set, the per-flow help
// text and the validation rules all come from the same flow registry
// the library and the thermschedd service read.
//
// Usage:
//
//	thermsched -benchmark Bm1 -policy thermal
//	thermsched -graph my.tg -policy h3 -gantt
//	thermsched -flow cosynthesis -benchmark Bm2 -json
//	thermsched -flow cosynthesis -benchmark Bm2 -parallelism 4 -json
//	thermsched -flow cosynthesis -benchmark Bm1 -maxpes 4 -fpgens 2 -flp out.flp
//	thermsched -flow simulate -benchmark Bm3 -replicas 16 -seed 1 -json
//	thermsched -flow generate -tasks 80 -pes 8 -seed 7 -json
//	thermsched -flow platform -tasks 80 -pes 8 -seed 7
//	thermsched -flow campaign -scenarios 50 -mintasks 20 -maxtasks 200 -seed 1
//	thermsched -flow stream -seed 3 -policy greedy -replicas 4 -json
//	thermsched -flow campaign -stream -scenarios 8 -seed 1
//	thermsched -flow simulate -benchmark Bm2 -controller admit -warmstart -json
//	thermsched -flow stream -seed 3 -policy admit -replicas 4
//	thermsched -flow campaign -controllers toggle,admit -scenarios 8 -seed 1
//
// Graph-consuming flows accept -tasks/-pes/… instead of a benchmark or
// graph file: the run then schedules a generated scenario on its own
// generated platform. The stream flow generates an online workload
// (periodic sources plus Poisson/bursty aperiodic arrivals) and
// dispatches it with -policy fifo|random|coolest|greedy. With -json the
// output is the same serializable Response schema that cmd/thermschedd
// serves over HTTP. -flp writes the response's floorplan in HotSpot
// .flp form, which cmd/hotspotsim reads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"thermalsched"
	"thermalsched/internal/taskgraph"
)

func main() {
	var (
		flow      = flag.String("flow", "platform", "flow: "+thermalsched.FlowNames())
		benchmark = flag.String("benchmark", "", "paper benchmark (Bm1..Bm4)")
		graphFile = flag.String("graph", "", "task graph file (.tg)")
		policyStr = flag.String("policy", "", "ASP policy (baseline, h1, h2, h3, thermal; default thermal) or, for -flow stream, an online policy (fifo, random, coolest, greedy, admit, zigzag; default greedy)")
		gantt     = flag.Bool("gantt", false, "print the per-PE timeline")
		tempW     = flag.Float64("tempweight", 0, "override the thermal DC weight (0 = default)")
		seed      = flag.Int64("seed", -1, "run seed (0 is a valid seed, honored verbatim; negative = default)")
		parallel  = flag.Int("parallelism", 0, "parallelism for cosynthesis search and simulate/stream replicas (0 = engine default GOMAXPROCS, 1 = serial; results are byte-identical at every value)")
		asJSON    = flag.Bool("json", false, "emit the serializable Response schema as JSON")

		// FlowCoSynthesis knobs.
		maxPEs = flag.Int("maxpes", 0, "cosynthesis: maximum PEs in the architecture (0 = default 6)")
		fpGens = flag.Int("fpgens", 0, "cosynthesis: GA floorplanner generations per candidate (0 = default 30)")
		flpOut = flag.String("flp", "", "write the response's floorplan to this .flp file (cosynthesis)")

		// FlowSimulate knobs (closed-loop DTM co-simulation).
		controller = flag.String("controller", "", "simulate controller: toggle, pi, none, admit, zigzag (default toggle)")
		trigger    = flag.Float64("trigger", 0, "simulate toggle trigger / PI setpoint °C (0 = default)")
		replicas   = flag.Int("replicas", 0, "simulate Monte-Carlo replicas (0 = default 1)")
		minFactor  = flag.Float64("minfactor", 0, "simulate execution-time factor lower bound (0 = default 1)")
		warmStart  = flag.Bool("warmstart", false, "simulate from the steady-state operating point")

		// Thermal-supervisor knobs (simulate and stream flows; 0 = default).
		fairC      = flag.Float64("fairc", 0, "thermal-state ladder fair threshold °C (0 = default 72)")
		seriousC   = flag.Float64("seriousc", 0, "thermal-state ladder serious threshold °C (0 = default 80)")
		criticalC  = flag.Float64("criticalc", 0, "thermal-state ladder critical threshold °C (0 = default 88)")
		serScale   = flag.Float64("seriousscale", 0, "admit controller throttle factor in the serious state (0 = default 0.7)")
		critScale  = flag.Float64("criticalscale", 0, "admit controller throttle factor in the critical state (0 = default 0.4)")
		retryAfter = flag.Float64("retryafter", 0, "admit controller denial hold in loop time units (0 = default 2)")
		coolTime   = flag.Float64("cooltime", 0, "zigzag controller cooling-gap length in loop time units (0 = default 5)")

		// Synthetic-scenario knobs (-flow generate, or any graph flow
		// with -tasks set).
		tasks      = flag.Int("tasks", 0, "generate a scenario with this many tasks instead of using a benchmark/graph")
		pes        = flag.Int("pes", 0, "generated platform PE count (0 = default 4)")
		shape      = flag.String("shape", "", "generated graph shape: layered, series-parallel (default layered)")
		ccr        = flag.Float64("ccr", 0, "generated communication-to-computation ratio (0 = default 0.1)")
		tightness  = flag.Float64("tightness", 0, "generated deadline tightness factor (0 = default 1.6)")
		branchFrac = flag.Float64("branchfrac", 0, "fraction of fan-out tasks made conditional branches")
		minSpeed   = flag.Float64("minspeed", 0, "generated platform minimum relative PE speed (0 = default 1)")
		maxSpeed   = flag.Float64("maxspeed", 0, "generated platform maximum relative PE speed (0 = default 1)")
		layout     = flag.String("layout", "", "generated floorplan layout: grid, row (default grid)")

		// FlowCampaign knobs.
		scenarios = flag.Int("scenarios", 0, "campaign scenario count (0 = default 8)")
		minTasks  = flag.Int("mintasks", 0, "campaign minimum tasks per scenario (0 = default 20)")
		maxTasks  = flag.Int("maxtasks", 0, "campaign maximum tasks per scenario (0 = default 60)")
		policies  = flag.String("policies", "", "campaign comma-separated policy list (default h3,thermal; stream mode fifo,greedy)")
		coSim     = flag.Bool("cosim", false, "campaign: run every cell through the closed-loop co-simulator")
		ctrlDuel  = flag.String("controllers", "", "campaign comma-separated controller duel list (e.g. toggle,admit); implies -cosim with one scheduling policy")

		// FlowStream knobs (-flow stream, or -flow campaign -stream).
		// The generated platform reuses -pes/-minspeed/-maxspeed/-layout,
		// the dispatch reuses -replicas/-minfactor.
		streamMode = flag.Bool("stream", false, "campaign: online stream mode (cells are stream dispatches, policies are online)")
		horizon    = flag.Float64("horizon", 0, "stream arrival horizon in schedule time units (0 = default 600)")
		sources    = flag.Int("sources", 0, "stream periodic source count (0 = default 3)")
		arrRate    = flag.Float64("arrivalrate", 0, "stream aperiodic Poisson arrival rate per time unit (0 = default 0.05)")
		burst      = flag.Float64("burst", 0, "stream mean aperiodic burst size (0 = default 1: no bursts)")
		laxity     = flag.Float64("laxity", 0, "stream aperiodic deadline laxity in mean-WCET multiples (0 = default 4)")
		simSeed    = flag.Int64("simseed", 0, "stream replica-0 dispatch seed (replica i uses simseed+i; verbatim)")
	)
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage of %s:\n", os.Args[0])
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nflows:\n%s", thermalsched.FlowUsage())
	}
	flag.Parse()

	scenarioSpec := func() *thermalsched.ScenarioSpec {
		spec := &thermalsched.ScenarioSpec{
			Graph: thermalsched.ScenarioGraphParams{
				Tasks:         *tasks,
				Shape:         *shape,
				CCR:           *ccr,
				Tightness:     *tightness,
				BranchDensity: *branchFrac,
			},
			Platform: thermalsched.ScenarioPlatformParams{
				PEs:      *pes,
				MinSpeed: *minSpeed,
				MaxSpeed: *maxSpeed,
				Layout:   *layout,
			},
		}
		if *seed >= 0 {
			spec.Seed = *seed
		}
		return spec
	}
	supervisor := thermalsched.SupervisorSpec{
		FairC:         *fairC,
		SeriousC:      *seriousC,
		CriticalC:     *criticalC,
		SeriousScale:  *serScale,
		CriticalScale: *critScale,
		RetryAfter:    *retryAfter,
		CoolTime:      *coolTime,
	}
	streamSpec := func() *thermalsched.StreamSpec {
		spec := &thermalsched.StreamSpec{
			Arrivals: thermalsched.StreamArrivalParams{
				Horizon:   *horizon,
				Sources:   *sources,
				Rate:      *arrRate,
				BurstMean: *burst,
				Laxity:    *laxity,
			},
			Platform: thermalsched.ScenarioPlatformParams{
				PEs:      *pes,
				MinSpeed: *minSpeed,
				MaxSpeed: *maxSpeed,
				Layout:   *layout,
			},
			MinFactor:      *minFactor,
			SimSeed:        *simSeed,
			Replicas:       *replicas,
			SupervisorSpec: supervisor,
		}
		if *seed >= 0 {
			spec.Seed = *seed
		}
		return spec
	}
	simulateSpec := func() *thermalsched.SimulateSpec {
		spec := &thermalsched.SimulateSpec{
			Controller:     *controller,
			TriggerC:       *trigger,
			SetpointC:      *trigger,
			Replicas:       *replicas,
			MinFactor:      *minFactor,
			WarmStart:      *warmStart,
			SupervisorSpec: supervisor,
		}
		if *seed >= 0 {
			spec.Seed = *seed
		}
		return spec
	}

	req := thermalsched.Request{Flow: thermalsched.FlowKind(*flow), Policy: *policyStr, IncludeGantt: *gantt}
	// Non-zero numeric knobs pass through verbatim, negative values
	// included, so Validate rejects them with the same diagnostic the
	// API surfaces.
	if *tempW != 0 {
		req.TempWeight = tempW
	}
	if *parallel != 0 {
		req.Parallelism = *parallel
	}
	if *maxPEs != 0 {
		req.MaxPEs = *maxPEs
	}
	if *fpGens != 0 {
		req.FloorplanGenerations = *fpGens
	}
	switch req.Flow {
	case thermalsched.FlowSimulate:
		req.Simulate = simulateSpec()
	case thermalsched.FlowCampaign:
		camp := thermalsched.CampaignSpec{
			Scenarios: *scenarios,
			MinTasks:  *minTasks,
			MaxTasks:  *maxTasks,
		}
		if *seed >= 0 {
			camp.Seed = *seed
		}
		if *policies != "" {
			camp.Policies = strings.Split(*policies, ",")
		}
		if *ctrlDuel != "" {
			camp.Controllers = strings.Split(*ctrlDuel, ",")
		}
		if *coSim || *ctrlDuel != "" {
			camp.Simulate = simulateSpec()
			// The duel's column axis names the controllers; the shared
			// spec's kind comes from each column, not -controller.
			if *ctrlDuel != "" {
				camp.Simulate.Controller = ""
			}
		}
		if *streamMode {
			st := streamSpec()
			st.Seed = 0 // per-workload seeds come from the campaign master seed
			camp.Stream = st
		} else if *tasks > 0 || *pes > 0 || *shape != "" || *layout != "" {
			tpl := scenarioSpec()
			tpl.Seed = 0 // per-scenario seeds come from the campaign master seed
			camp.Template = tpl
		}
		req.Campaign = &camp
	case thermalsched.FlowStream:
		req.Stream = streamSpec()
	case thermalsched.FlowCoSynthesis:
		if *seed >= 0 {
			req.Seed = seed
		}
	}
	switch req.Flow {
	case thermalsched.FlowCampaign, thermalsched.FlowStream:
		// These flows generate their own inputs; the benchmark/graph
		// knobs still flow through below so Engine.Check rejects
		// them with its canonical extraneous-input message instead of
		// the CLI silently dropping them.
	case thermalsched.FlowGenerate:
		req.Scenario = scenarioSpec()
	default:
		if *tasks > 0 {
			req.Seed = nil
			req.Scenario = scenarioSpec()
		}
	}
	// Pass both input knobs through for every flow so Engine.Check
	// reports the missing-input, both-set and extraneous-input cases
	// with the same canonical messages the service's 400 bodies carry.
	g, err := loadGraph(*graphFile)
	if err != nil {
		fatal(err)
	}
	if g != nil {
		req.Graph = thermalsched.GraphSpecOf(g)
	}
	req.Benchmark = *benchmark

	engine, err := thermalsched.NewEngine()
	if err != nil {
		fatal(err)
	}
	resp, err := engine.Run(context.Background(), req)
	if err != nil {
		fatal(err)
	}
	if *flpOut != "" {
		if resp.Floorplan == "" {
			fatal(fmt.Errorf("-flp: the %s flow returns no floorplan", resp.Flow))
		}
		if err := os.WriteFile(*flpOut, []byte(resp.Floorplan), 0o644); err != nil {
			fatal(err)
		}
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.SetEscapeHTML(false)
		if err := enc.Encode(resp); err != nil {
			fatal(err)
		}
		return
	}
	printHuman(resp)
}

// loadGraph parses the -graph file when one was given; input-arity
// errors (no input, both -benchmark and -graph) are left to
// Engine.Check so the CLI and the service share one message.
func loadGraph(file string) (*thermalsched.Graph, error) {
	if file == "" {
		return nil, nil
	}
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return taskgraph.ReadGraph(f)
}

func printHuman(resp *thermalsched.Response) {
	fmt.Printf("flow       %s\n", resp.Flow)
	if resp.Graph != "" {
		fmt.Printf("graph      %s\n", resp.Graph)
	}
	if resp.Policy != "" {
		fmt.Printf("policy     %s\n", resp.Policy)
	}
	if m := resp.Metrics; m != nil {
		fmt.Printf("makespan   %.1f (%s)\n", m.Makespan, feasStr(m.Feasible))
		fmt.Printf("total pow  %.2f W\n", m.TotalPower)
		fmt.Printf("max temp   %.2f °C\n", m.MaxTemp)
		fmt.Printf("avg temp   %.2f °C\n", m.AvgTemp)
		if resp.Flow == thermalsched.FlowCoSynthesis {
			fmt.Printf("cost       %.0f\n", m.Cost)
		}
	}
	if len(resp.Architecture) > 0 {
		fmt.Println("architecture:")
		for _, pe := range resp.Architecture {
			fmt.Printf("  %-6s %-10s %5.1f mm²\n", pe.Name, pe.Type, pe.AreaMM2)
		}
	}
	if len(resp.PerPE) > 0 {
		fmt.Println("per-PE:")
		for _, pe := range resp.PerPE {
			fmt.Printf("  %-6s %6.2f W  %7.2f °C\n", pe.Name, pe.PowerW, pe.TempC)
		}
	}
	if s := resp.Simulate; s != nil {
		fmt.Printf("simulate   %s over %d replica(s), static makespan %.1f, deadline %.1f\n",
			s.Controller, s.Replicas, s.StaticMakespan, s.Deadline)
		fmt.Printf("  makespan      %s\n", statsLine(s.Makespan, "%.1f"))
		fmt.Printf("  peak temp °C  %s\n", statsLine(s.PeakTempC, "%.2f"))
		fmt.Printf("  throttle time %s\n", statsLine(s.ThrottleTime, "%.1f"))
		fmt.Printf("  deadline miss %.0f%%\n", 100*s.DeadlineMissRate)
		if s.MeanAdmissionDenials > 0 {
			fmt.Printf("  denials       %.1f per replica\n", s.MeanAdmissionDenials)
		}
	}
	if s := resp.Stream; s != nil {
		fmt.Printf("stream     %s policy over %d replica(s): %d jobs (%d periodic, %d aperiodic) on %d PEs, horizon %g\n",
			s.Policy, s.Replicas, s.Jobs, s.PeriodicJobs, s.AperiodicJobs, s.PEs, s.Horizon)
		fmt.Printf("  makespan      %s\n", statsLine(s.Makespan, "%.1f"))
		fmt.Printf("  peak temp °C  %s\n", statsLine(s.PeakTempC, "%.2f"))
		fmt.Printf("  miss rate     %s\n", statsLine(s.MissRate, "%.3f"))
		fmt.Printf("  mean response %s\n", statsLine(s.MeanResponse, "%.1f"))
		fmt.Printf("  price         %s (clairvoyant bound mean %.1f)\n", statsLine(s.Price, "%.3f"), s.OfflineBound.Mean)
		if s.MeanAdmissionDenials > 0 {
			fmt.Printf("  denials       %.1f per replica\n", s.MeanAdmissionDenials)
		}
	}
	if sc := resp.Scenario; sc != nil {
		fmt.Printf("scenario   %s (fingerprint %s)\n", sc.Name, sc.Fingerprint)
		fmt.Printf("  %d tasks, %d edges, depth %d, %d source(s), %d sink(s), %d branch node(s)\n",
			sc.Tasks, sc.Edges, sc.Depth, sc.Sources, sc.Sinks, sc.BranchNodes)
		fmt.Printf("  deadline %g, realized CCR %.3f\n", sc.Deadline, sc.CCR)
		fmt.Printf("  platform: %d PEs, %d task types, %s layout\n", sc.PEs, sc.TaskTypes, sc.Layout)
	}
	if c := resp.Campaign; c != nil {
		fmt.Print(c)
		fmt.Println("rows:")
		for _, row := range c.Rows {
			fmt.Printf("  %-6s %-16s %4d tasks %4d edges %2d PEs |", row.Scenario, row.Shape, row.Tasks, row.Edges, row.PEs)
			for _, cell := range row.Cells {
				if cell.Error != "" {
					fmt.Printf("  %s: ERROR %s", cell.Policy, cell.Error)
					continue
				}
				fmt.Printf("  %s max %.1f °C", cell.Policy, cell.MaxTempC)
			}
			fmt.Println()
		}
	}
	if resp.Gantt != "" {
		fmt.Print(resp.Gantt)
	}
}

func statsLine(s thermalsched.Stats, f string) string {
	pat := fmt.Sprintf("mean %s  p50 %s  p90 %s  max %s", f, f, f, f)
	return fmt.Sprintf(pat, s.Mean, s.P50, s.P90, s.Max)
}

func feasStr(ok bool) string {
	if ok {
		return "meets deadline"
	}
	return "MISSES deadline"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "thermsched:", err)
	os.Exit(1)
}
