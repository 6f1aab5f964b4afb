package taskgraph

import "fmt"

// Conditional task graphs. The ASP the paper builds on (Xie & Wolf,
// DATE 2001) schedules *conditional* task graphs: some edges fire only
// when their branch condition holds at run time. This file adds the
// standard CTG probability model on top of Graph:
//
//   - every edge carries Prob, the probability that control flows down
//     the edge given its source executed (1 = unconditional);
//   - a task executes if any incoming edge fires; sibling conditional
//     edges out of a branch node are mutually exclusive, so execution
//     probabilities combine additively along joins (capped at 1).
//
// Scheduling remains worst-case (every branch is reserved a slot, the
// conservative treatment); the probabilities feed the Bernoulli branch
// realization of the closed-loop executor (runtime.Config.Conditional).
// Xie & Wolf's mutual-exclusion slot sharing is out of scope.

// effectiveProb returns the edge's firing probability, treating the
// zero value as 1 so plain (unconditional) graphs need no annotation.
func (e Edge) effectiveProb() float64 {
	if e.Prob == 0 {
		return 1
	}
	return e.Prob
}

// IsConditional reports whether the edge fires with probability < 1.
func (e Edge) IsConditional() bool { return e.Prob != 0 && e.Prob < 1 }

// ValidateProbabilities checks the CTG annotation: for every branch
// node the outgoing probabilities do not exceed 1 in total when any of
// them is conditional (mutually exclusive branches). Each edge's own
// probability already lies in [0, 1], which AddEdge enforces.
func (g *Graph) ValidateProbabilities() error {
	for id := range g.tasks {
		var sum float64
		conditional := false
		for _, e := range g.ix.succOf(id) {
			sum += e.effectiveProb()
			if e.IsConditional() {
				conditional = true
			}
		}
		if conditional && sum > 1+1e-9 {
			return fmt.Errorf("taskgraph: branch task %d has outgoing probabilities summing to %g > 1", id, sum)
		}
	}
	return nil
}

// ExecutionProbabilities returns, per task, the probability that the
// task executes at run time: sources execute with probability 1; a
// non-source task's probability is the sum over incoming edges of
// P(source) × P(edge), capped at 1 (incoming conditional edges of a
// join belong to mutually exclusive branches in a well-formed CTG).
func (g *Graph) ExecutionProbabilities() ([]float64, error) {
	if err := g.ValidateProbabilities(); err != nil {
		return nil, err
	}
	probs := make([]float64, len(g.tasks))
	for _, id := range g.ix.order {
		preds := g.ix.predOf(id)
		if len(preds) == 0 {
			probs[id] = 1
			continue
		}
		var p float64
		for _, e := range preds {
			p += probs[e.From] * e.effectiveProb()
		}
		if p > 1 {
			p = 1
		}
		probs[id] = p
	}
	return probs, nil
}
