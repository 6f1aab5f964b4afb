package stream

import "fmt"

// Online policy names. These intentionally do not overlap the offline
// list-scheduler policy names (sched.ParsePolicy): an online policy
// decides placement with past knowledge only, so the two families are
// never interchangeable.
const (
	// PolicyFIFO serves jobs strictly in arrival order on the
	// lowest-index idle PE — the throughput-oblivious baseline.
	PolicyFIFO = "fifo"
	// PolicyRandom serves in arrival order on a seeded-random idle PE.
	PolicyRandom = "random"
	// PolicyCoolest serves in EDF order on the idle PE whose thermal
	// block reads coolest (last step's sensor values).
	PolicyCoolest = "coolest"
	// PolicyGreedy serves in EDF order on the idle PE whose predicted
	// steady-state average-temperature impact is smallest, computed
	// incrementally from the influence oracle — the online counterpart
	// of the paper's thermal-aware list scheduler.
	PolicyGreedy = "greedy"
	// PolicyAdmit is PolicyGreedy gated by predictive admission: before
	// a PE may take a job, the thermal supervisor forecasts the start's
	// temperature rise and refuses it if the block would reach serious —
	// the job waits at full speed instead of running into throttling.
	// Requires a non-nil Input.Supervisor and the influence oracle.
	PolicyAdmit = "admit"
	// PolicyZigzag is PolicyCoolest gated by idle-slack cooling in the
	// style of Chrobak et al. (arXiv 0801.4238): a block that reaches
	// serious is forced through a fixed cooling gap during which it
	// takes no new work. Requires a non-nil Input.Supervisor.
	PolicyZigzag = "zigzag"
)

// Policies lists the online policy names in their canonical order.
func Policies() []string {
	return []string{PolicyFIFO, PolicyRandom, PolicyCoolest, PolicyGreedy, PolicyAdmit, PolicyZigzag}
}

// ParsePolicy canonicalizes an online policy name; empty means
// PolicyGreedy.
func ParsePolicy(name string) (string, error) {
	if name == "" {
		return PolicyGreedy, nil
	}
	for _, p := range Policies() {
		if name == p {
			return p, nil
		}
	}
	return "", fmt.Errorf("stream: unknown online policy %q (want one of %v)", name, Policies())
}
