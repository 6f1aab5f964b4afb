// Command thermsched runs one Engine request and reports the schedule,
// power and steady-state temperatures. The request is the JSON
// thermalsched.Request that the thermschedd service decodes, given as
// the one argument or, when there is none, on stdin; it is decoded by
// the service's rules (unknown fields and trailing data are errors) and
// run through Engine.Run, so the library, the service and the CLI accept
// the same requests and report the same validation messages.
//
// Usage:
//
//	thermsched [-json] [-flp FILE] [-graph FILE.tg] [REQUEST]
//
//	thermsched '{"flow":"platform","benchmark":"Bm1","policy":"thermal"}'
//	thermsched -graph my.tg '{"flow":"platform","policy":"h3","includeGantt":true}'
//	thermsched -json '{"flow":"cosynthesis","benchmark":"Bm2","parallelism":4}'
//	thermsched -flp out.flp '{"flow":"cosynthesis","benchmark":"Bm1","maxPEs":4,"floorplanGenerations":2}'
//	thermsched -json '{"flow":"simulate","benchmark":"Bm3","simulate":{"replicas":16,"seed":1}}'
//	thermsched -json '{"flow":"generate","scenario":{"seed":7,"graph":{"tasks":80},"platform":{"pes":8}}}'
//	thermsched '{"flow":"campaign","campaign":{"scenarios":8,"seed":1,"stream":{}}}'
//	thermsched -json < request.json
//
// -json prints the Response schema thermschedd serves; without it the
// output is a human summary. -graph reads a .tg task graph file into
// the request's graph field. -flp writes the response's floorplan in
// HotSpot .flp form, which cmd/hotspotsim reads.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"thermalsched"
	"thermalsched/internal/taskgraph"
)

func main() {
	asJSON := flag.Bool("json", false, "print the Response as JSON, the schema thermschedd serves")
	flpOut := flag.String("flp", "", "write the response's floorplan to this .flp file")
	graphFile := flag.String("graph", "", "read this task graph file (.tg) into the request's graph field")
	flag.Usage = func() {
		out := flag.CommandLine.Output()
		fmt.Fprintf(out, "Usage: %s [-json] [-flp FILE] [-graph FILE.tg] [REQUEST]\n\n", os.Args[0])
		fmt.Fprintf(out, "REQUEST is one JSON thermalsched.Request; without it the request is read from stdin.\n\n")
		flag.PrintDefaults()
		fmt.Fprintf(out, "\nflows:\n%s", thermalsched.FlowUsage())
	}
	flag.Parse()

	if flag.NArg() > 1 {
		usageError("want at most one REQUEST argument, got %d", flag.NArg())
	}
	var src io.Reader = os.Stdin
	if flag.NArg() == 1 {
		src = strings.NewReader(flag.Arg(0))
	}
	req, err := decode(src)
	if err != nil {
		fatal(err)
	}
	if *graphFile != "" {
		if req.Graph != nil {
			usageError("-graph and a request that carries graph both give the graph")
		}
		g, err := loadGraph(*graphFile)
		if err != nil {
			fatal(err)
		}
		req.Graph = thermalsched.GraphSpecOf(g)
	}

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

// decode reads one request by the rules the service decodes a body
// with: an unknown field and data after the object are errors.
func decode(r io.Reader) (thermalsched.Request, error) {
	var req thermalsched.Request
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding request: %w", err)
	}
	if dec.More() {
		return req, errors.New("trailing data after JSON request")
	}
	return req, nil
}

// loadGraph parses a .tg task graph file.
func loadGraph(file string) (*thermalsched.Graph, error) {
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

// usageError reports a malformed command line and exits 2, as the flag
// package does for an unknown flag.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "thermsched: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}
