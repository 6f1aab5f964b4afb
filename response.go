package thermalsched

import (
	"math"
	"sort"
	"strings"

	"thermalsched/internal/cosynth"
)

// PEInfo describes one processing element of a response's architecture.
type PEInfo struct {
	Name    string  `json:"name"`
	Type    string  `json:"type"`
	AreaMM2 float64 `json:"areaMM2"`
	Cost    float64 `json:"cost"`
}

// PEStat is one processing element's steady-state operating point.
type PEStat struct {
	Name   string  `json:"name"`
	PowerW float64 `json:"powerW"`
	TempC  float64 `json:"tempC"`
}

// Stats summarizes one metric across Monte-Carlo replicas. Percentiles
// use the nearest-rank method over the sorted replica values.
type Stats struct {
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	P50  float64 `json:"p50"`
	P90  float64 `json:"p90"`
	Max  float64 `json:"max"`
}

// statsOf computes replica statistics. vals is sorted in place.
func statsOf(vals []float64) Stats {
	if len(vals) == 0 {
		return Stats{}
	}
	sort.Float64s(vals)
	var sum float64
	for _, v := range vals {
		sum += v
	}
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(vals)))) - 1
		if i < 0 {
			i = 0
		}
		return vals[i]
	}
	return Stats{
		Mean: sum / float64(len(vals)),
		Min:  vals[0],
		P50:  rank(0.50),
		P90:  rank(0.90),
		Max:  vals[len(vals)-1],
	}
}

// SimulateReport summarizes a FlowSimulate closed-loop co-simulation
// over its Monte-Carlo replicas.
type SimulateReport struct {
	Controller string `json:"controller"`
	Replicas   int    `json:"replicas"`
	// StaticMakespan is the WCET schedule's makespan; Deadline the task
	// graph's deadline, both in schedule time units.
	StaticMakespan float64 `json:"staticMakespan"`
	Deadline       float64 `json:"deadline"`
	// Makespan, PeakTempC and ThrottleTime aggregate the replicas'
	// realized makespans (schedule units), hottest observed block
	// temperatures (°C) and total busy time spent throttled (schedule
	// units, summed over PEs).
	Makespan     Stats `json:"makespan"`
	PeakTempC    Stats `json:"peakTempC"`
	ThrottleTime Stats `json:"throttleTime"`
	// DeadlineMissRate is the fraction of replicas whose realized
	// makespan exceeded the deadline.
	DeadlineMissRate float64 `json:"deadlineMissRate"`
	// MeanSteps is the average number of co-simulation steps per replica.
	MeanSteps float64 `json:"meanSteps"`
	// MeanEnergy is the average delivered energy per replica.
	MeanEnergy float64 `json:"meanEnergy"`
	// MeanAdmissionDenials is the average number of admission queries
	// the thermal supervisor refused per replica. A held queue head
	// waits out its hold without asking, and a hold ends with its
	// sensing step, so an embargo counts once per step it reaches.
	// Omitted for the reactive controllers (toggle, pi, none), which
	// never deny.
	MeanAdmissionDenials float64 `json:"meanAdmissionDenials,omitempty"`
}

// Response is the JSON-serializable outcome of one Engine request. The
// CLI's -json mode and the thermschedd service emit exactly this schema.
type Response struct {
	// Flow and Policy echo the resolved request; Graph names the input
	// task graph.
	Flow   FlowKind `json:"flow"`
	Graph  string   `json:"graph,omitempty"`
	Policy string   `json:"policy,omitempty"`
	// Fingerprint identifies the generated scenario a scenario-driven
	// run executed on (the cache key clients can reuse).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Metrics are the paper's table columns (platform, cosynthesis and
	// simulate flows).
	Metrics *FlowMetrics `json:"metrics,omitempty"`
	// Architecture lists the scheduled PEs; PerPE their steady-state
	// power and temperature.
	Architecture []PEInfo `json:"architecture,omitempty"`
	PerPE        []PEStat `json:"perPE,omitempty"`
	// Floorplan is the layout in HotSpot .flp text form (cosynthesis).
	Floorplan string `json:"floorplan,omitempty"`
	// Gantt is the per-PE timeline, present when the request asked for it.
	Gantt string `json:"gantt,omitempty"`
	// Simulate carries the FlowSimulate closed-loop summary.
	Simulate *SimulateReport `json:"simulate,omitempty"`
	// Scenario carries the FlowGenerate payload: the generated
	// scenario's stats and serialized forms.
	Scenario *ScenarioReport `json:"scenario,omitempty"`
	// Campaign carries the FlowCampaign aggregate.
	Campaign *CampaignReport `json:"campaign,omitempty"`
	// Stream carries the FlowStream online-dispatch summary.
	Stream *StreamReport `json:"stream,omitempty"`
	// ElapsedMS is the server-side wall-clock cost of the run.
	ElapsedMS float64 `json:"elapsedMs"`
	// Error is set instead of the payload fields when a batch entry or
	// service call fails; Engine.Run itself returns Go errors.
	Error string `json:"error,omitempty"`
}

// flowResponse assembles the shared parts of a platform/cosynthesis/
// simulate response from a flow result.
func flowResponse(flow FlowKind, policy Policy, res *cosynth.Result, includeGantt, includePlan bool) (*Response, error) {
	resp := &Response{
		Flow:    flow,
		Graph:   res.Schedule.Graph.Name,
		Policy:  policy.String(),
		Metrics: &res.Metrics,
	}
	lib := res.Schedule.Lib
	for _, pe := range res.Arch.PEs {
		t := lib.PEType(pe.Type)
		resp.Architecture = append(resp.Architecture, PEInfo{
			Name: pe.Name, Type: t.Name, AreaMM2: t.Area * 1e6, Cost: t.Cost,
		})
	}
	pow, err := res.Schedule.PEAveragePower(res.Schedule.Graph.Deadline)
	if err != nil {
		return nil, err
	}
	temps, err := res.Oracle.Temps(pow)
	if err != nil {
		return nil, err
	}
	for i, name := range res.Arch.PENames() {
		t, _ := temps.Of(name)
		resp.PerPE = append(resp.PerPE, PEStat{Name: name, PowerW: pow[i], TempC: t})
	}
	if includePlan {
		var b strings.Builder
		if err := res.Plan.Write(&b); err != nil {
			return nil, err
		}
		resp.Floorplan = b.String()
	}
	if includeGantt {
		resp.Gantt = res.Schedule.Gantt()
	}
	return resp, nil
}
