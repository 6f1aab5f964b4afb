package thermalsched

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"thermalsched/internal/scenario"
	"thermalsched/internal/sched"
	"thermalsched/internal/stream"
)

// MaxCampaignScenarios caps CampaignSpec.Scenarios: every scenario is
// scheduled once per compared policy, so an unbounded count would let a
// single service request monopolize the process.
const MaxCampaignScenarios = 4096

// winEpsilon separates a genuine metric improvement from floating-point
// noise in the campaign duels: deltas within ±winEpsilon (°C, W, time
// units or miss rate) count as ties. Identical schedules produce
// bit-identical metrics, so any honest improvement clears this
// comfortably.
const winEpsilon = 1e-9

// tallyOutcome classifies one opponent-minus-reference duel delta: a
// strict win for the reference (delta > winEpsilon), a tie
// (|delta| ≤ winEpsilon), or a loss.
func tallyOutcome(delta float64, wins, ties *int) {
	switch {
	case delta > winEpsilon:
		*wins++
	case delta >= -winEpsilon:
		*ties++
	}
}

// CampaignSpec parameterizes the FlowCampaign study: a policy
// comparison fanned across a family of generated scenarios. The zero
// value uses the documented defaults.
type CampaignSpec struct {
	// Scenarios is the number of scenarios to generate (default 8).
	Scenarios int `json:"scenarios,omitempty"`
	// Seed drives the campaign's scenario derivation: scenario i's size
	// and generation seed are drawn from this master seed, so the whole
	// campaign is reproducible from one number. Used verbatim — zero is
	// an ordinary seed.
	Seed int64 `json:"seed"`
	// Policies names the compared ASP variants (ParsePolicy syntax).
	// Default: heuristic3 (the paper's best power heuristic) vs
	// thermal.
	Policies []string `json:"policies,omitempty"`
	// MinTasks and MaxTasks bound the per-scenario task counts
	// (defaults 20 and 60). Scenario i draws uniformly from the range.
	MinTasks int `json:"minTasks,omitempty"`
	MaxTasks int `json:"maxTasks,omitempty"`
	// Template is the base scenario spec: every generated scenario
	// copies it and overrides Name, Seed and Graph.Tasks. A nil
	// template (or one with an empty Graph.Shape) additionally draws
	// each scenario's shape at random, widening structural coverage.
	Template *ScenarioSpec `json:"template,omitempty"`
	// Simulate, when set, runs every scenario × policy cell through the
	// closed-loop DTM co-simulator (FlowSimulate) instead of the static
	// platform flow, adding realized makespan/peak-temp/throttle
	// columns to the rows.
	Simulate *SimulateSpec `json:"simulate,omitempty"`
	// Stream, when set, switches the campaign to online mode: every
	// cell is a FlowStream dispatch of a generated arrival trace (the
	// template for per-scenario workloads — Name and Seed are overridden
	// per scenario) and Policies names online policies (fifo, random,
	// coolest, greedy, admit, zigzag; default fifo vs greedy). Mutually
	// exclusive with Simulate and Template.
	Stream *StreamSpec `json:"stream,omitempty"`
	// Controllers, when set, switches the comparison axis from
	// scheduling policies to closed-loop DTM controllers: every cell
	// runs the same scheduling policy (the single Policies entry;
	// default thermal) through the co-simulator with one of the named
	// controller kinds (toggle, pi, none, admit, zigzag), so the duels
	// read as reactive-vs-predictive thermal management at a fixed
	// schedule. Implies simulate mode (a nil Simulate spec defaults);
	// mutually exclusive with Stream — online campaigns duel controllers
	// by listing admit/zigzag directly in Policies.
	Controllers []string `json:"controllers,omitempty"`
}

func (c *CampaignSpec) withDefaults() CampaignSpec {
	out := CampaignSpec{}
	if c != nil {
		out = *c
	}
	if out.Scenarios == 0 {
		out.Scenarios = 8
	}
	if len(out.Controllers) > 0 {
		// A controller duel is inherently a simulate-mode campaign at a
		// fixed scheduling policy.
		if out.Simulate == nil {
			out.Simulate = &SimulateSpec{}
		}
		if len(out.Policies) == 0 {
			out.Policies = []string{sched.ThermalAware.String()}
		}
	}
	if len(out.Policies) == 0 {
		if out.Stream != nil {
			out.Policies = []string{stream.PolicyFIFO, stream.PolicyGreedy}
		} else {
			out.Policies = []string{sched.MinTaskEnergy.String(), sched.ThermalAware.String()}
		}
	}
	if out.MinTasks == 0 {
		out.MinTasks = 20
	}
	if out.MaxTasks == 0 {
		out.MaxTasks = 60
	}
	return out
}

// Validate reports the first problem with the campaign parameters, as
// a *FieldError naming its full path ("campaign.policies",
// "campaign.simulate.hysteresis").
func (c *CampaignSpec) Validate() error {
	n := c.withDefaults()
	if n.Scenarios < 0 {
		return fieldErr("campaign.scenarios", "negative campaign scenario count %d", c.Scenarios)
	}
	if n.Scenarios > MaxCampaignScenarios {
		return fieldErr("campaign.scenarios", "%d campaign scenarios exceed the limit %d",
			n.Scenarios, MaxCampaignScenarios)
	}
	seen := make(map[string]bool, len(n.Policies))
	for _, name := range n.Policies {
		canonical, err := n.canonicalPolicy(name)
		if err != nil {
			return fieldErr("campaign.policies", "%v", err)
		}
		if seen[canonical] {
			return fieldErr("campaign.policies", "campaign policy %q listed twice", canonical)
		}
		seen[canonical] = true
	}
	if n.MinTasks < 1 || n.MaxTasks < n.MinTasks || n.MaxTasks > scenario.MaxTasks {
		return fieldErr("campaign.minTasks", "campaign task range [%d, %d] outside [1, %d]",
			n.MinTasks, n.MaxTasks, scenario.MaxTasks)
	}
	if n.Template != nil {
		if err := n.Template.Validate(); err != nil {
			return fieldErr("campaign.template", "%v", err)
		}
	}
	if n.Simulate != nil {
		if err := n.Simulate.validate("campaign.simulate"); err != nil {
			return err
		}
	}
	if len(n.Controllers) > 0 {
		if n.Stream != nil {
			return fieldErr("campaign.controllers", "campaign controller duel excludes stream mode; list admit/zigzag in policies instead")
		}
		if len(n.Policies) != 1 {
			return fieldErr("campaign.policies", "campaign controller duel needs exactly one scheduling policy, got %d", len(n.Policies))
		}
		seenCtl := make(map[string]bool, len(n.Controllers))
		for _, name := range n.Controllers {
			if name == "" || !validSimulateController(name) {
				return fieldErr("campaign.controllers", "unknown campaign controller %q (want one of %v)", name, simulateControllers)
			}
			if seenCtl[name] {
				return fieldErr("campaign.controllers", "campaign controller %q listed twice", name)
			}
			seenCtl[name] = true
		}
	}
	if n.Stream != nil {
		if n.Simulate != nil {
			return fieldErr("campaign.stream", "campaign stream mode excludes simulate; remove one")
		}
		if n.Template != nil {
			return fieldErr("campaign.stream", "campaign stream mode uses the stream spec as its template; remove template")
		}
		if err := n.Stream.validate("campaign.stream"); err != nil {
			return err
		}
	}
	return nil
}

// canonicalPolicy parses one policy name in the family the campaign's
// mode compares: online policies in stream mode, ASP variants
// otherwise.
func (c CampaignSpec) canonicalPolicy(name string) (string, error) {
	if c.Stream != nil {
		return stream.ParsePolicy(name)
	}
	p, err := sched.ParsePolicy(name)
	if err != nil {
		return "", err
	}
	return p.String(), nil
}

// policyNames returns the canonical names of the campaign's policies.
func (c CampaignSpec) policyNames() []string {
	out := make([]string, len(c.Policies))
	for i, name := range c.Policies {
		p, err := c.canonicalPolicy(name)
		if err != nil {
			p = name // unreachable after Validate
		}
		out[i] = p
	}
	return out
}

// scenarioSpecs derives the campaign's scenario specs deterministically
// from the master seed: sizes, shapes and per-scenario seeds all come
// from one seeded stream, so the same CampaignSpec always names the
// same scenario family.
func (c CampaignSpec) scenarioSpecs() []ScenarioSpec {
	rng := rand.New(rand.NewSource(c.Seed))
	base := ScenarioSpec{}
	if c.Template != nil {
		base = *c.Template
	}
	drawShape := base.Graph.Shape == ""
	out := make([]ScenarioSpec, c.Scenarios)
	for i := range out {
		s := base
		s.Name = fmt.Sprintf("c%03d", i)
		s.Graph.Tasks = c.MinTasks + rng.Intn(c.MaxTasks-c.MinTasks+1)
		if drawShape {
			if rng.Intn(2) == 0 {
				s.Graph.Shape = ScenarioShapeLayered
			} else {
				s.Graph.Shape = ScenarioShapeSeriesParallel
			}
		}
		s.Seed = rng.Int63()
		out[i] = s
	}
	return out
}

// streamSpecs derives the stream-mode workload family the same way
// scenarioSpecs derives scenarios: every workload copies the campaign's
// stream spec and overrides Name and Seed from the master seed's
// stream, so one number reproduces the whole family.
func (c CampaignSpec) streamSpecs() []StreamSpec {
	rng := rand.New(rand.NewSource(c.Seed))
	out := make([]StreamSpec, c.Scenarios)
	for i := range out {
		s := *c.Stream
		s.Name = fmt.Sprintf("c%03d", i)
		s.Seed = rng.Int63()
		out[i] = s
	}
	return out
}

// CampaignCell is one scenario × policy outcome. The static columns
// come from the platform flow's metrics; the Realized* columns are
// present in simulate mode only.
type CampaignCell struct {
	Policy      string  `json:"policy"`
	Feasible    bool    `json:"feasible"`
	Makespan    float64 `json:"makespan"`
	TotalPowerW float64 `json:"totalPowerW"`
	MaxTempC    float64 `json:"maxTempC"`
	AvgTempC    float64 `json:"avgTempC"`
	// Simulate- and stream-mode extras (zero otherwise).
	RealizedMakespan float64 `json:"realizedMakespan,omitempty"`
	PeakTempC        float64 `json:"peakTempC,omitempty"`
	ThrottleTime     float64 `json:"throttleTime,omitempty"`
	DeadlineMissRate float64 `json:"deadlineMissRate,omitempty"`
	// Price is the stream-mode price-of-onlineness ratio (replica mean
	// of realized makespan over the clairvoyant offline bound, ≥ 1).
	Price float64 `json:"price,omitempty"`
	// Error is set when this cell's run failed; the cell is then
	// excluded from every aggregate.
	Error string `json:"error,omitempty"`
}

// CampaignRow is one generated scenario with its per-policy cells (in
// the campaign's policy order).
type CampaignRow struct {
	Scenario    string         `json:"scenario"`
	Fingerprint string         `json:"fingerprint"`
	Seed        int64          `json:"seed"`
	Shape       string         `json:"shape"`
	Tasks       int            `json:"tasks"`
	Edges       int            `json:"edges"`
	PEs         int            `json:"pes"`
	Deadline    float64        `json:"deadline"`
	Cells       []CampaignCell `json:"cells"`
}

// CampaignPolicyStats aggregates one policy's outcomes over the
// scenarios where its run succeeded.
type CampaignPolicyStats struct {
	Policy   string `json:"policy"`
	Runs     int    `json:"runs"`
	Feasible int    `json:"feasible"`
	Makespan Stats  `json:"makespan"`
	MaxTempC Stats  `json:"maxTempC"`
	AvgTempC Stats  `json:"avgTempC"`
	PowerW   Stats  `json:"powerW"`
	// ThrottleTime aggregates the realized throttle time in simulate
	// mode (zero otherwise).
	ThrottleTime Stats `json:"throttleTime,omitempty"`
}

// CampaignDuel is the reference policy's win-rate against one opponent
// over the scenarios where both runs were feasible. Wins are strict
// (beyond winEpsilon); scenarios inside the epsilon band
// count as ties.
type CampaignDuel struct {
	Opponent     string  `json:"opponent"`
	Compared     int     `json:"compared"`
	MaxTempWins  int     `json:"maxTempWins"`
	MaxTempTies  int     `json:"maxTempTies"`
	AvgTempWins  int     `json:"avgTempWins"`
	AvgTempTies  int     `json:"avgTempTies"`
	PowerWins    int     `json:"powerWins"`
	PowerTies    int     `json:"powerTies"`
	MeanMaxRedC  float64 `json:"meanMaxRedC"`
	MeanAvgRedC  float64 `json:"meanAvgRedC"`
	MeanPowerRed float64 `json:"meanPowerRedW"`
	// ThrottleWins counts scenarios where the reference throttled
	// strictly less — beyond winEpsilon, like every other
	// duel column; ThrottleTies the scenarios inside the epsilon band
	// (simulate mode only).
	ThrottleWins int `json:"throttleWins,omitempty"`
	ThrottleTies int `json:"throttleTies,omitempty"`
	// MissRateWins counts scenarios where the reference missed strictly
	// fewer deadlines; MeanMissRed is the opponent-minus-reference mean
	// miss-rate delta (simulate and stream modes only).
	MissRateWins int     `json:"missRateWins,omitempty"`
	MissRateTies int     `json:"missRateTies,omitempty"`
	MeanMissRed  float64 `json:"meanMissRed,omitempty"`
	// PeakTempWins counts scenarios where the reference's realized peak
	// temperature ran strictly cooler; MeanPeakRedC the mean reduction.
	// These are the closed-loop counterpart of the static MaxTemp duel —
	// the columns a controller duel (reactive vs predictive) is read by
	// (simulate and stream modes only).
	PeakTempWins int     `json:"peakTempWins,omitempty"`
	PeakTempTies int     `json:"peakTempTies,omitempty"`
	MeanPeakRedC float64 `json:"meanPeakRedC,omitempty"`
}

// CampaignReport is the FlowCampaign payload: per-scenario rows plus
// per-policy percentile statistics and the reference policy's win
// rates against every other policy.
type CampaignReport struct {
	Scenarios int      `json:"scenarios"`
	Policies  []string `json:"policies"`
	// Reference is the policy the duels are measured for: "thermal"
	// when compared, otherwise the first policy.
	Reference string `json:"reference"`
	Simulated bool   `json:"simulated"`
	// Streamed marks an online (stream-mode) campaign: cells are online
	// dispatches, duels compare miss rates and thermal envelopes, and
	// feasibility (zero misses) is a metric, not a comparison gate.
	Streamed bool `json:"streamed,omitempty"`
	// ControllerAxis marks a controller duel: Policies carries controller
	// kinds, every cell shares one scheduling policy, and the realized
	// peak/miss-rate duel columns are the ones that differ.
	ControllerAxis bool `json:"controllerAxis,omitempty"`
	// Failed counts cells whose runs errored (excluded from
	// aggregates).
	Failed    int                   `json:"failed"`
	Rows      []CampaignRow         `json:"rows"`
	PerPolicy []CampaignPolicyStats `json:"perPolicy"`
	Duels     []CampaignDuel        `json:"duels"`
}

// runCampaignFlow generates the campaign's scenario family and fans the
// scenario × policy grid across the engine's RunBatch worker pool, then
// aggregates rows, per-policy percentiles and win rates.
func (e *Engine) runCampaignFlow(ctx context.Context, req *Request) (*Response, error) {
	spec := req.Campaign.withDefaults()
	policies := spec.policyNames()
	if spec.Stream != nil {
		return e.runStreamCampaign(ctx, spec, policies)
	}
	specs := spec.scenarioSpecs()

	// Generate every scenario up front (warming the fingerprint cache
	// the sub-requests resolve through) and capture each row's realized
	// properties now — resolving again after the batch would regenerate
	// whatever a large campaign already evicted from the cache.
	rows := make([]CampaignRow, len(specs))
	for i := range specs {
		sc, err := e.scenarioFor(specs[i])
		if err != nil {
			return nil, err
		}
		rows[i] = CampaignRow{
			Scenario:    sc.Graph.Name,
			Fingerprint: sc.Fingerprint,
			Seed:        sc.Spec.Seed,
			Shape:       sc.Spec.Graph.Shape,
			Tasks:       sc.Graph.NumTasks(),
			Edges:       sc.Graph.NumEdges(),
			PEs:         len(sc.PETypeNames),
			Deadline:    sc.Graph.Deadline,
		}
	}

	flow := FlowPlatform
	if spec.Simulate != nil {
		flow = FlowSimulate
	}
	// The grid's column axis is policies, or controllers in a controller
	// duel — there the scheduling policy is pinned to the single entry
	// and each column overrides the simulate spec's controller kind.
	cols := policies
	var simSpecs []*SimulateSpec
	if len(spec.Controllers) > 0 {
		cols = spec.Controllers
		simSpecs = make([]*SimulateSpec, len(cols))
		for j, ctrl := range cols {
			s := *spec.Simulate
			s.Controller = ctrl
			simSpecs[j] = &s
		}
	}
	subs := make([]Request, 0, len(specs)*len(cols))
	for i := range specs {
		for j := range cols {
			pol := policies[0]
			if simSpecs == nil {
				pol = cols[j]
			}
			sub := Request{Flow: flow, Scenario: &specs[i], Policy: pol}
			if simSpecs != nil {
				sub.Simulate = simSpecs[j]
			} else if spec.Simulate != nil {
				sub.Simulate = spec.Simulate
			}
			subs = append(subs, sub)
		}
	}
	report := &CampaignReport{
		Policies:       cols,
		Reference:      campaignReference(cols),
		Simulated:      spec.Simulate != nil,
		ControllerAxis: len(spec.Controllers) > 0,
	}
	if report.ControllerAxis {
		report.Reference = campaignControllerReference(cols)
	}
	return e.runCampaignGrid(ctx, report, rows, subs)
}

// runStreamCampaign is the online (stream-mode) campaign body: the same
// grid fan-out as the offline path, with workloads in place of
// scenarios and FlowStream dispatches in place of platform runs.
func (e *Engine) runStreamCampaign(ctx context.Context, spec CampaignSpec, policies []string) (*Response, error) {
	specs := spec.streamSpecs()
	rows := make([]CampaignRow, len(specs))
	for i := range specs {
		wl, err := e.streamFor(specs[i])
		if err != nil {
			return nil, err
		}
		rows[i] = CampaignRow{
			Scenario:    wl.Spec.Name,
			Fingerprint: wl.Fingerprint,
			Seed:        wl.Spec.Seed,
			Shape:       "stream",
			Tasks:       len(wl.Jobs),
			PEs:         len(wl.PETypeNames),
			Deadline:    wl.Spec.Arrivals.Horizon,
		}
	}
	subs := make([]Request, 0, len(specs)*len(policies))
	for i := range specs {
		for _, pol := range policies {
			subs = append(subs, Request{Flow: FlowStream, Stream: &specs[i], Policy: pol})
		}
	}
	report := &CampaignReport{
		Policies:  policies,
		Reference: campaignStreamReference(policies),
		Streamed:  true,
	}
	return e.runCampaignGrid(ctx, report, rows, subs)
}

// runCampaignGrid is the tail both campaign modes share: it runs subs,
// the row-major scenario × column grid, on the engine's RunBatch pool,
// files each response as a cell of its row in report.Policies order,
// and aggregates the report's statistics and duels.
func (e *Engine) runCampaignGrid(ctx context.Context, report *CampaignReport, rows []CampaignRow, subs []Request) (*Response, error) {
	resps, err := e.RunBatch(ctx, subs)
	if err != nil {
		return nil, err
	}
	cols := report.Policies
	for i := range rows {
		for j, col := range cols {
			rows[i].Cells = append(rows[i].Cells, campaignCell(col, resps[i*len(cols)+j]))
		}
	}
	report.Scenarios = len(rows)
	report.Rows = rows
	aggregateCampaign(report)
	return &Response{Flow: FlowCampaign, Campaign: report}, nil
}

// campaignReference picks the duel reference: thermal when present,
// otherwise the first policy.
func campaignReference(policies []string) string {
	for _, p := range policies {
		if p == sched.ThermalAware.String() {
			return p
		}
	}
	return policies[0]
}

// campaignStreamReference picks the stream-mode duel reference: the
// predictive admission policy when present (it is the one whose wins
// the duels are meant to witness), then thermal-greedy, then the first.
func campaignStreamReference(policies []string) string {
	for _, p := range policies {
		if p == stream.PolicyAdmit {
			return p
		}
	}
	for _, p := range policies {
		if p == stream.PolicyGreedy {
			return p
		}
	}
	return policies[0]
}

// campaignControllerReference picks the controller-duel reference:
// predictive admission when present, otherwise the first controller.
func campaignControllerReference(controllers []string) string {
	for _, c := range controllers {
		if c == "admit" {
			return c
		}
	}
	return controllers[0]
}

// campaignCell converts one sub-run's response into a row cell.
func campaignCell(policy string, resp *Response) CampaignCell {
	cell := CampaignCell{Policy: policy}
	if resp == nil {
		cell.Error = "missing response"
		return cell
	}
	if resp.Error != "" {
		cell.Error = resp.Error
		return cell
	}
	if m := resp.Metrics; m != nil {
		cell.Feasible = m.Feasible
		cell.Makespan = m.Makespan
		cell.TotalPowerW = m.TotalPower
		cell.MaxTempC = m.MaxTemp
		cell.AvgTempC = m.AvgTemp
	}
	if s := resp.Simulate; s != nil {
		cell.RealizedMakespan = s.Makespan.Mean
		cell.PeakTempC = s.PeakTempC.Mean
		cell.ThrottleTime = s.ThrottleTime.Mean
		cell.DeadlineMissRate = s.DeadlineMissRate
	}
	if s := resp.Stream; s != nil {
		// Online cells: feasibility means zero misses across replicas —
		// a metric for the stats, never a duel gate.
		cell.Feasible = s.MissRate.Mean == 0
		cell.Makespan = s.Makespan.Mean
		cell.MaxTempC = s.PeakTempC.Mean
		cell.AvgTempC = s.AvgTempC.Mean
		cell.RealizedMakespan = s.Makespan.Mean
		cell.PeakTempC = s.PeakTempC.Mean
		cell.DeadlineMissRate = s.MissRate.Mean
		cell.Price = s.Price.Mean
	}
	return cell
}

// aggregateCampaign fills the report's per-policy statistics and duels
// from its rows.
func aggregateCampaign(r *CampaignReport) {
	cellOf := func(row CampaignRow, policy string) *CampaignCell {
		for i := range row.Cells {
			if row.Cells[i].Policy == policy {
				return &row.Cells[i]
			}
		}
		return nil
	}
	for _, pol := range r.Policies {
		st := CampaignPolicyStats{Policy: pol}
		var mk, maxT, avgT, pw, thr []float64
		for _, row := range r.Rows {
			c := cellOf(row, pol)
			if c == nil || c.Error != "" {
				r.Failed++
				continue
			}
			st.Runs++
			if c.Feasible {
				st.Feasible++
			}
			mk = append(mk, c.Makespan)
			maxT = append(maxT, c.MaxTempC)
			avgT = append(avgT, c.AvgTempC)
			pw = append(pw, c.TotalPowerW)
			if r.Simulated {
				thr = append(thr, c.ThrottleTime)
			}
		}
		st.Makespan = statsOf(mk)
		st.MaxTempC = statsOf(maxT)
		st.AvgTempC = statsOf(avgT)
		st.PowerW = statsOf(pw)
		st.ThrottleTime = statsOf(thr)
		r.PerPolicy = append(r.PerPolicy, st)
	}
	for _, opp := range r.Policies {
		if opp == r.Reference {
			continue
		}
		duel := CampaignDuel{Opponent: opp}
		for _, row := range r.Rows {
			ref, oc := cellOf(row, r.Reference), cellOf(row, opp)
			if ref == nil || oc == nil || ref.Error != "" || oc.Error != "" {
				continue
			}
			// Offline cells compare only where both schedules met the
			// deadline; online cells always compare — the miss rate IS
			// one of the duel metrics there, not a validity gate.
			if !r.Streamed && (!ref.Feasible || !oc.Feasible) {
				continue
			}
			duel.Compared++
			dMax := oc.MaxTempC - ref.MaxTempC
			dAvg := oc.AvgTempC - ref.AvgTempC
			dPow := oc.TotalPowerW - ref.TotalPowerW
			duel.MeanMaxRedC += dMax
			duel.MeanAvgRedC += dAvg
			duel.MeanPowerRed += dPow
			tallyOutcome(dMax, &duel.MaxTempWins, &duel.MaxTempTies)
			tallyOutcome(dAvg, &duel.AvgTempWins, &duel.AvgTempTies)
			tallyOutcome(dPow, &duel.PowerWins, &duel.PowerTies)
			if r.Simulated {
				tallyOutcome(oc.ThrottleTime-ref.ThrottleTime, &duel.ThrottleWins, &duel.ThrottleTies)
			}
			if r.Simulated || r.Streamed {
				dMiss := oc.DeadlineMissRate - ref.DeadlineMissRate
				duel.MeanMissRed += dMiss
				tallyOutcome(dMiss, &duel.MissRateWins, &duel.MissRateTies)
				dPeak := oc.PeakTempC - ref.PeakTempC
				duel.MeanPeakRedC += dPeak
				tallyOutcome(dPeak, &duel.PeakTempWins, &duel.PeakTempTies)
			}
		}
		if duel.Compared > 0 {
			n := float64(duel.Compared)
			duel.MeanMaxRedC /= n
			duel.MeanAvgRedC /= n
			duel.MeanPowerRed /= n
			duel.MeanMissRed /= n
			duel.MeanPeakRedC /= n
		}
		r.Duels = append(r.Duels, duel)
	}
}

// String renders the campaign summary: per-policy percentiles and the
// reference policy's win rates.
func (r *CampaignReport) String() string {
	var b strings.Builder
	mode := "static platform runs"
	if r.Simulated {
		mode = "closed-loop co-simulations"
	}
	if r.Streamed {
		mode = "online stream dispatches"
	}
	fmt.Fprintf(&b, "Campaign: %d scenarios × %d policies (%s)\n",
		r.Scenarios, len(r.Policies), mode)
	if r.Failed > 0 {
		fmt.Fprintf(&b, "  %d cell(s) failed and are excluded from aggregates\n", r.Failed)
	}
	for _, st := range r.PerPolicy {
		if r.Streamed {
			// Online cells have no static power column; feasible here
			// means a miss-free dispatch, and makespan is the realized
			// one.
			fmt.Fprintf(&b, "  %-11s miss-free %d/%d  peak temp mean %.2f °C (p50 %.2f, p90 %.2f)  makespan mean %.1f\n",
				st.Policy, st.Feasible, st.Runs, st.MaxTempC.Mean, st.MaxTempC.P50, st.MaxTempC.P90, st.Makespan.Mean)
			continue
		}
		fmt.Fprintf(&b, "  %-11s feasible %d/%d  max temp mean %.2f °C (p50 %.2f, p90 %.2f)  power mean %.2f W\n",
			st.Policy, st.Feasible, st.Runs, st.MaxTempC.Mean, st.MaxTempC.P50, st.MaxTempC.P90, st.PowerW.Mean)
	}
	for _, d := range r.Duels {
		fmt.Fprintf(&b, "  %s vs %s on %d scenario(s): max temp wins %d (%d ties, mean red %.2f °C), avg temp wins %d (%d ties, mean red %.2f °C)\n",
			r.Reference, d.Opponent, d.Compared,
			d.MaxTempWins, d.MaxTempTies, d.MeanMaxRedC,
			d.AvgTempWins, d.AvgTempTies, d.MeanAvgRedC)
		if r.Simulated {
			fmt.Fprintf(&b, "    throttles less on %d/%d (%d ties)\n", d.ThrottleWins, d.Compared, d.ThrottleTies)
		}
		if r.Simulated || r.Streamed {
			fmt.Fprintf(&b, "    misses fewer deadlines on %d/%d (%d ties, mean red %.3f)\n",
				d.MissRateWins, d.Compared, d.MissRateTies, d.MeanMissRed)
			fmt.Fprintf(&b, "    realized peak cooler on %d/%d (%d ties, mean red %.2f °C)\n",
				d.PeakTempWins, d.Compared, d.PeakTempTies, d.MeanPeakRedC)
		}
	}
	return b.String()
}
