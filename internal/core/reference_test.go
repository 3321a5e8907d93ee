package core

import (
	"math"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// Naive reference implementations of the navigation model: the one
// oracle every fast path in this package is differentially tested
// against. They walk the *State pointer graph and call vector.Cosine
// (which recomputes both norms on every call), sharing nothing with the
// CSR/arena kernels of navigation.go. A nil *Feedback selects the pure
// similarity model (Eq 1); a non-nil one blends its observations into
// every transition (Sec 2.4).

// naiveChildTransitions is Eq 1: a softmax over the children of s with
// logit (γ/|ch(s)|)·cos(μ_c, μ_X), parallel to s.Children.
func naiveChildTransitions(o *Org, s StateID, topic vector.Vector) []float64 {
	children := o.States[s].Children
	if len(children) == 0 {
		return nil
	}
	probs := make([]float64, len(children))
	scale := o.Gamma / float64(len(children))
	maxLogit := math.Inf(-1)
	for i, c := range children {
		probs[i] = scale * vector.Cosine(o.States[c].topic, topic)
		if probs[i] > maxLogit {
			maxLogit = probs[i]
		}
	}
	var sum float64
	for i := range probs {
		probs[i] = math.Exp(probs[i] - maxLogit)
		sum += probs[i]
	}
	for i := range probs {
		probs[i] /= sum
	}
	return probs
}

// naiveBlendedTransitions is the Sec 2.4 Dirichlet blend of Eq 1:
// (α·P(c|s) + n(s→c)) / (α + Σ_c n(s→c)), with the row total summed
// from the counts rather than read from Feedback's cached totals.
func naiveBlendedTransitions(f *Feedback, s StateID, topic vector.Vector) []float64 {
	probs := naiveChildTransitions(f.org, s, topic)
	row := f.counts[s]
	if len(row) == 0 {
		return probs
	}
	children := f.org.States[s].Children
	var total float64
	for _, c := range children {
		total += row[c]
	}
	for i, c := range children {
		probs[i] = (f.prior*probs[i] + row[c]) / (f.prior + total)
	}
	return probs
}

// naiveTransitions dispatches between the pure and the blended model.
func naiveTransitions(o *Org, f *Feedback, s StateID, topic vector.Vector) []float64 {
	if f == nil {
		return naiveChildTransitions(o, s, topic)
	}
	return naiveBlendedTransitions(f, s, topic)
}

// naiveReachProbs is Eq 2–4: reach mass pushed from the root through
// every interior state's transitions, in topological order.
func naiveReachProbs(o *Org, f *Feedback, topic vector.Vector) []float64 {
	reach := make([]float64, len(o.States))
	reach[o.Root] = 1
	for _, id := range o.Topo() {
		s := o.States[id]
		if s.Kind == KindLeaf || reach[id] == 0 || s.Kind == KindTag {
			continue
		}
		probs := naiveTransitions(o, f, id, topic)
		for i, c := range s.Children {
			if o.States[c].Kind != KindLeaf {
				reach[c] += reach[id] * probs[i]
			}
		}
	}
	return reach
}

// naiveLeafProb is Definition 1: the reach of a's tag-state parents
// times their transition into a's leaf.
func naiveLeafProb(o *Org, f *Feedback, a lake.AttrID, topic vector.Vector, reach []float64) float64 {
	leaf, ok := o.leafOf[a]
	if !ok {
		return 0
	}
	var p float64
	for _, t := range o.States[leaf].Parents {
		if reach[t] == 0 {
			continue
		}
		probs := naiveTransitions(o, f, t, topic)
		for i, c := range o.States[t].Children {
			if c == leaf {
				p += reach[t] * probs[i]
				break
			}
		}
	}
	return p
}

// naiveEffectiveness is Eq 6: P(T|O) = 1 − Π(1 − P(A|O)) over each
// table's organized attributes, averaged over the lake's tables.
func naiveEffectiveness(o *Org, f *Feedback) float64 {
	probs := make(map[lake.AttrID]float64, len(o.attrs))
	for _, a := range o.attrs {
		leaf, ok := o.leafOf[a]
		if !ok {
			continue
		}
		topic := o.States[leaf].topic
		probs[a] = naiveLeafProb(o, f, a, topic, naiveReachProbs(o, f, topic))
	}
	if len(o.Lake.Tables) == 0 {
		return 0
	}
	var sum float64
	for _, t := range o.Lake.Tables {
		fail := 1.0
		for _, a := range t.Attrs {
			if p, ok := probs[a]; ok {
				fail *= 1 - p
			}
		}
		sum += 1 - fail
	}
	return sum / float64(len(o.Lake.Tables))
}
