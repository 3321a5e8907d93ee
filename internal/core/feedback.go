package core

import (
	"fmt"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// Feedback implements the paper's Sec 2.4 remark: "we can apply
// existing incremental model estimation techniques to maintain and
// update the transition probabilities as behavior logs and workload
// patterns become available through the use of an organization by
// users."
//
// Observed transitions are accumulated per edge and blended with the
// similarity-based model through Dirichlet smoothing: with prior weight
// α, the blended transition probability from s to child c under topic X
// is
//
//	P̂(c|s) = (α·P_model(c|s,X) + n(s→c)) / (α + n(s→·))
//
// so an unused organization behaves exactly like the model (n = 0) and
// heavily used edges converge to their empirical frequencies. Decay
// implements exponential forgetting for non-stationary workloads.
type Feedback struct {
	org   *Org
	prior float64
	// counts[parent][child] is the observed transition mass.
	counts map[StateID]map[StateID]float64
	// totals[parent] caches the row sums.
	totals map[StateID]float64
}

// NewFeedback returns an empty feedback accumulator over org. prior is
// the Dirichlet pseudo-count α; it must be positive (larger values make
// observations move the distribution more slowly).
func NewFeedback(org *Org, prior float64) (*Feedback, error) {
	if prior <= 0 {
		return nil, fmt.Errorf("core: feedback prior must be positive, got %v", prior)
	}
	return &Feedback{
		org:    org,
		prior:  prior,
		counts: make(map[StateID]map[StateID]float64),
		totals: make(map[StateID]float64),
	}, nil
}

// Observe records one observed transition from parent to child. It
// returns an error when the edge does not exist in the organization.
func (f *Feedback) Observe(parent, child StateID) error {
	if !f.org.hasEdge(parent, child) {
		return fmt.Errorf("core: feedback on nonexistent edge %d→%d", parent, child)
	}
	row := f.counts[parent]
	if row == nil {
		row = make(map[StateID]float64)
		f.counts[parent] = row
	}
	row[child]++
	f.totals[parent]++
	return nil
}

// ObservePath records every transition along a navigation path (as
// returned by Org.Walk).
func (f *Feedback) ObservePath(path []StateID) error {
	for i := 1; i < len(path); i++ {
		if err := f.Observe(path[i-1], path[i]); err != nil {
			return err
		}
	}
	return nil
}

// Observations returns the total observed transition mass.
func (f *Feedback) Observations() float64 {
	var sum float64
	for _, t := range f.totals {
		sum += t
	}
	return sum
}

// Decay multiplies every count by factor in (0, 1], forgetting old
// behaviour exponentially. Rows that decay below a small epsilon are
// dropped. A factor outside (0, 1] is rejected with an error — servers
// feed this knob from configuration and request input, so misuse must
// not crash the process.
func (f *Feedback) Decay(factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("core: decay factor %v outside (0, 1]", factor)
	}
	const eps = 1e-9
	for parent, row := range f.counts {
		var total float64
		for child := range row {
			row[child] *= factor
			if row[child] < eps {
				delete(row, child)
				continue
			}
			total += row[child]
		}
		if len(row) == 0 {
			delete(f.counts, parent)
			delete(f.totals, parent)
			continue
		}
		f.totals[parent] = total
	}
	return nil
}

// blend applies the Dirichlet smoothing above in place, right after the
// Eq 1 kernel: probs holds P_model over s's children (the CSR run
// children) and becomes P̂. A state without observations keeps the pure
// model.
//
//lakelint:hotpath
func (f *Feedback) blend(s StateID, children []int32, probs []float64) {
	row := f.counts[s]
	if len(row) == 0 {
		return
	}
	denom := f.prior + f.totals[s]
	for i, c := range children {
		probs[i] = (f.prior*probs[i] + row[StateID(c)]) / denom
	}
}

// TransitionProbs returns the blended transition distribution from s
// under topic, in the order of the state's children.
func (f *Feedback) TransitionProbs(s StateID, topic vector.Vector) []float64 {
	return f.org.transitionProbs(s, topic, f)
}

// ReachProbs computes reach probabilities like Org.ReachProbs but under
// the blended transition model, so organizations can be re-evaluated
// against observed behaviour.
func (f *Feedback) ReachProbs(topic vector.Vector) []float64 {
	return f.org.reachProbs(topic, f)
}

// LeafProb mirrors Org.LeafProb under the blended transition model.
func (f *Feedback) LeafProb(a lake.AttrID, topic vector.Vector, reach []float64) float64 {
	return f.org.leafProb(a, topic, reach, f)
}

// Effectiveness evaluates Eq 6 under the blended model: what the
// organization's effectiveness looks like for the user population whose
// behaviour was observed. Comparing this with Org.Effectiveness shows
// whether real usage routes better or worse than the similarity model
// assumes — the signal that would drive workload-aware re-optimization.
func (f *Feedback) Effectiveness() float64 {
	return f.org.effectiveness(f)
}
