package core

import (
	"math"
	"sort"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// Naive reference implementations of the navigation model: the one
// oracle every fast path in this package is differentially tested
// against. They walk the *State pointer graph and call vector.Cosine
// (which recomputes both norms on every call), sharing nothing with the
// arena kernels of navigation.go.

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

// naiveReachProbs is Eq 2–4: reach mass pushed from the root through
// every interior state's transitions, in topological order.
func naiveReachProbs(o *Org, topic vector.Vector) []float64 {
	reach := make([]float64, len(o.States))
	reach[o.Root] = 1
	for _, id := range o.Topo() {
		s := o.States[id]
		if s.Kind == KindLeaf || reach[id] == 0 || s.Kind == KindTag {
			continue
		}
		probs := naiveChildTransitions(o, id, topic)
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
func naiveLeafProb(o *Org, a lake.AttrID, topic vector.Vector, reach []float64) float64 {
	leaf, ok := o.leafOf[a]
	if !ok {
		return 0
	}
	var p float64
	for _, t := range o.States[leaf].Parents {
		if reach[t] == 0 {
			continue
		}
		probs := naiveChildTransitions(o, t, topic)
		for i, c := range o.States[t].Children {
			if c == leaf {
				p += reach[t] * probs[i]
				break
			}
		}
	}
	return p
}

// naiveAttrProbs is P(A|O) for every organized attribute: Definition 1
// under the attribute's own topic.
func naiveAttrProbs(o *Org) map[lake.AttrID]float64 {
	probs := make(map[lake.AttrID]float64, len(o.attrs))
	for _, a := range o.attrs {
		leaf, ok := o.leafOf[a]
		if !ok {
			continue
		}
		topic := o.States[leaf].topic
		probs[a] = naiveLeafProb(o, a, topic, naiveReachProbs(o, topic))
	}
	return probs
}

// naiveTableProb is Eq 5 (and, given P(A|M), Eq 8): P(T) = 1 − Π(1 −
// P(A)) over the table's attributes with a discovery probability.
func naiveTableProb(t *lake.Table, probs map[lake.AttrID]float64) float64 {
	fail := 1.0
	for _, a := range t.Attrs {
		if p, ok := probs[a]; ok {
			fail *= 1 - p
		}
	}
	return 1 - fail
}

// naiveMeanTableProb averages naiveTableProb over the lake's live
// tables; tombstoned tables are not part of the lake.
func naiveMeanTableProb(l *lake.Lake, probs map[lake.AttrID]float64) float64 {
	var sum float64
	live := 0
	for _, t := range l.Tables {
		if t.Removed {
			continue
		}
		sum += naiveTableProb(t, probs)
		live++
	}
	if live == 0 {
		return 0
	}
	return sum / float64(live)
}

// naiveSuccess is the Sec 4.2 measure: an attribute's success is 1 −
// Π(1 − P(A_j)) over every live embeddable text attribute A_j within
// cosine θ of it (itself included), and tables compose those successes
// like Eq 5. Tombstoned tables keep a 0 in PerTable and are left out of
// Sorted and Mean.
func naiveSuccess(l *lake.Lake, probs map[lake.AttrID]float64, theta float64) *SuccessResult {
	var attrs []*lake.Attribute
	for _, a := range l.Attrs {
		if !a.Removed && a.Text && a.EmbCount > 0 {
			attrs = append(attrs, a)
		}
	}
	success := make(map[lake.AttrID]float64, len(attrs))
	for _, a := range attrs {
		fail := 1.0
		for _, b := range attrs {
			if vector.Cosine(a.Topic, b.Topic) >= theta {
				fail *= 1 - probs[b.ID]
			}
		}
		success[a.ID] = 1 - fail
	}
	res := &SuccessResult{PerTable: make([]float64, len(l.Tables))}
	for ti, t := range l.Tables {
		if t.Removed {
			continue
		}
		res.PerTable[ti] = naiveTableProb(t, success)
		res.Sorted = append(res.Sorted, res.PerTable[ti])
	}
	sort.Float64s(res.Sorted)
	res.Mean = naiveMeanTableProb(l, success)
	return res
}

// naiveEffectiveness is Eq 6: P(T|O) averaged over the lake's live
// tables.
func naiveEffectiveness(o *Org) float64 {
	return naiveMeanTableProb(o.Lake, naiveAttrProbs(o))
}

// naiveMultiDimAttrProbs is the per-attribute form of Eq 8: P(A|M) =
// 1 − Π_i (1 − P(A|O_i)) over the dimensions that organize A.
func naiveMultiDimAttrProbs(m *MultiDim) map[lake.AttrID]float64 {
	fail := make(map[lake.AttrID]float64)
	for _, o := range m.Orgs {
		for a, p := range naiveAttrProbs(o) {
			f, ok := fail[a]
			if !ok {
				f = 1
			}
			fail[a] = f * (1 - p)
		}
	}
	out := make(map[lake.AttrID]float64, len(fail))
	for a, f := range fail {
		out[a] = 1 - f
	}
	return out
}

// naiveSupport recounts a non-leaf state's child support from scratch:
// for every attribute in some child's domain, how many of the state's
// children contain it. It shares nothing with the sorted dom/sup
// bookkeeping of organization.go.
func naiveSupport(o *Org, id StateID) map[lake.AttrID]int {
	out := make(map[lake.AttrID]int)
	for _, c := range o.States[id].Children {
		cs := o.States[c]
		if cs.Kind == KindLeaf {
			out[cs.Attr]++
			continue
		}
		for _, a := range naiveDomain(o, c) {
			out[a]++
		}
	}
	return out
}

// naiveDomain is D_s by definition: a leaf's attribute, or the union of
// the children's domains (the inclusion property), in ascending order.
func naiveDomain(o *Org, id StateID) []lake.AttrID {
	s := o.States[id]
	if s.Kind == KindLeaf {
		return []lake.AttrID{s.Attr}
	}
	var dom []lake.AttrID
	for a := range naiveSupport(o, id) {
		dom = append(dom, a)
	}
	sort.Slice(dom, func(i, j int) bool { return dom[i] < dom[j] })
	return dom
}
