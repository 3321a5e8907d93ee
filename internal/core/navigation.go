package core

import (
	"math"
	"math/rand"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// transitionsInto is the Eq 1 transition kernel, the only
// implementation of it: P(c|s, X, O) for every child of s is a softmax
// over children with logit (γ/|ch(s)|)·cos(μ_c, μ_X). The |ch(s)|
// penalty makes large branching factors wash out topic signal, which is
// what drives the model away from flat organizations.
//
// It writes into the caller-provided scratch (cap(probs) must be at
// least the fan-out; size it with maxFanOut) and returns probs resliced
// to the fan-out, or nil for a childless state. The sweep reads s's
// child list and scores each child against the flat topic arena — one
// contiguous float64 block, no per-child *State dereference — which is
// what lets evaluator workers scale with cores instead of stalling on
// cache misses.
//
// sims, when non-nil, is a cosine memo row for this topic indexed by
// StateID (len ≥ len(o.States)): a NaN cell is computed from the arena
// and stored, any other cell is reused as cos(μ_c, μ_X). The caller
// owns its coherence — a cell must be reset to NaN whenever the state's
// topic changes. A nil row computes every cosine. Either way the logit
// is the same product of the same values, so results are bit-identical.
//
//lakelint:hotpath
func (o *Org) transitionsInto(s StateID, topic vector.Vector, topicNorm float64, sims, probs []float64) []float64 {
	children := o.States[s].Children
	if len(children) == 0 {
		return nil
	}
	probs = probs[:len(children)]
	scale := o.Gamma / float64(len(children))
	maxLogit := math.Inf(-1)
	ar := o.arena
	dim := ar.dim
	for i, c := range children {
		var sim float64
		if sims != nil && !math.IsNaN(sims[c]) {
			sim = sims[c]
		} else {
			off := int(c) * dim
			sim = vector.CosineNorms(ar.vecs[off:off+dim], topic, ar.norms[c], topicNorm)
			if sims != nil {
				sims[c] = sim
			}
		}
		probs[i] = scale * sim
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

// fillNaN marks every cell of a cosine memo row as not yet computed.
func fillNaN(sims []float64) {
	nan := math.NaN()
	for i := range sims {
		sims[i] = nan
	}
}

// reachProbsInto is the Eq 2–4 reach sweep: it fills reach
// (len(o.States), zeroed here) with P(s|X, O) using probs as the
// transition scratch (cap ≥ maxFanOut()) and sims as the
// topic's cosine memo row (nil for none; see transitionsInto), and
// returns reach.
// One topological sweep pushes each state's reach mass to its children
// through the transition softmax. Only interior states propagate —
// leaves are terminal and tag states' children are leaves — and no
// interior state has a leaf child (the kind rule Validate enforces on
// every loaded organization and CanAddParent on every built one), so a
// leaf's reach stays 0.
//
//lakelint:hotpath
func (o *Org) reachProbsInto(topic vector.Vector, topicNorm float64, sims, reach, probs []float64) []float64 {
	states := o.States
	reach = reach[:len(states)]
	for i := range reach {
		reach[i] = 0
	}
	reach[o.Root] = 1
	for _, id := range o.Topo() {
		s := states[id]
		if s.Kind != KindInterior || reach[id] == 0 {
			continue
		}
		p := o.transitionsInto(id, topic, topicNorm, sims, probs)
		for i, c := range s.Children {
			reach[c] += reach[id] * p[i]
		}
	}
	return reach
}

// leafProbInto is Definition 1's leaf probability: the discovery
// probability of attribute a under query topic, given reach from
// reachProbsInto over the same topic — the reach mass of a's
// tag-state parents times the leaf-level transition probabilities.
// probs is the caller-owned transition scratch (cap ≥ maxFanOut());
// sims is the topic's cosine memo row, or nil.
//
// trans, when non-nil, is the topic's transition memo (see transMemo):
// tag state t's distribution is computed into its cells when the first
// one is NaN and reused otherwise. A nil trans computes every
// distribution into probs.
//
//lakelint:hotpath
func (o *Org) leafProbInto(a lake.AttrID, topic vector.Vector, topicNorm float64, sims []float64, trans *transMemo, reach, probs []float64) float64 {
	leaf, ok := o.leafOf[a]
	if !ok {
		return 0
	}
	var p float64
	for _, t := range o.States[leaf].Parents {
		if reach[t] == 0 {
			continue
		}
		var tp []float64
		if trans != nil {
			tp = trans.cells[trans.start[t]:trans.start[t+1]]
			if math.IsNaN(tp[0]) {
				o.transitionsInto(t, topic, topicNorm, sims, tp)
			}
		} else {
			tp = o.transitionsInto(t, topic, topicNorm, sims, probs)
		}
		for i, c := range o.States[t].Children {
			if c == leaf {
				p += reach[t] * tp[i]
				break
			}
		}
	}
	return p
}

// transMemo is one topic's Eq 1 transition memo: state s's distribution
// over its children is cells[start[s]:start[s+1]], stale while its
// first cell is NaN. start is a prefix sum of the fan-outs, so the memo
// is valid only while the organization is not modified — within one
// request on a serving snapshot.
type transMemo struct {
	start []int32
	cells []float64
}

// newTransMemo lays out a transition memo over o's current fan-outs,
// every distribution stale.
func (o *Org) newTransMemo() *transMemo {
	start := make([]int32, len(o.States)+1)
	for i, s := range o.States {
		start[i+1] = start[i] + int32(len(s.Children))
	}
	cells := make([]float64, start[len(o.States)])
	fillNaN(cells)
	return &transMemo{start: start, cells: cells}
}

// maxFanOut returns the widest child list, which sizes transition
// scratch.
func (o *Org) maxFanOut() int {
	n := 0
	for _, s := range o.States {
		n = max(n, len(s.Children))
	}
	return n
}

// newScratch allocates one reach row and one transition buffer sized
// for the kernels, for the allocating entry points below.
func (o *Org) newScratch() (reach, probs []float64) {
	return make([]float64, len(o.States)), make([]float64, o.maxFanOut())
}

// TransitionProbs returns P(c|s, X, O) (Eq 1) for every child of s,
// parallel to s.Children, for callers outside the optimizer (navigation
// UIs, the user-study simulator).
func (o *Org) TransitionProbs(s StateID, topic vector.Vector) []float64 {
	return o.transitionsInto(s, topic, vector.Norm(topic), nil, make([]float64, len(o.States[s].Children)))
}

// discoveryProbInto is P(A|O): one reach sweep and one leaf evaluation
// under a's own topic, into caller-owned scratch.
func (o *Org) discoveryProbInto(a lake.AttrID, reach, probs []float64) float64 {
	leaf, ok := o.leafOf[a]
	if !ok {
		return 0
	}
	topic, norm := o.States[leaf].topic, o.States[leaf].topicNorm
	o.reachProbsInto(topic, norm, nil, reach, probs)
	return o.leafProbInto(a, topic, norm, nil, nil, reach, probs)
}

// DiscoveryProbs returns, for every organized attribute (parallel to
// Attrs()), the probability that a session navigating under the given
// query topic reaches the attribute's leaf: one reach sweep shared by
// every leaf evaluation, with the topic norm computed once, one
// request-local cosine memo row and one request-local transition memo
// row (see leafProbInto), so a tag state's softmax runs once per request
// rather than once per attribute under it. This is the serving-path form
// of discovery evaluation — AttrDiscoveryProbs answers it for each
// attribute's own topic, this answers it for an arbitrary query.
func (o *Org) DiscoveryProbs(topic vector.Vector) []float64 {
	norm := vector.Norm(topic)
	reach, probs := o.newScratch()
	sims := make([]float64, len(o.States))
	fillNaN(sims)
	trans := o.newTransMemo()
	o.reachProbsInto(topic, norm, sims, reach, probs)
	out := make([]float64, len(o.attrs))
	for i, a := range o.attrs {
		out[i] = o.leafProbInto(a, topic, norm, sims, trans, reach, probs)
	}
	return out
}

// AttrDiscoveryProbs returns P(A|O) for every organized attribute,
// parallel to Attrs(): the probability that a user whose query topic is
// the attribute's own topic vector reaches its leaf (Definitions 1–3).
// This is the exact (non-approximate, non-pruned)
// evaluation; the optimizer uses the incremental evaluator instead. One
// reach row and one transition buffer serve every attribute.
func (o *Org) AttrDiscoveryProbs() []float64 {
	reach, probs := o.newScratch()
	out := make([]float64, len(o.attrs))
	for i, a := range o.attrs {
		out[i] = o.discoveryProbInto(a, reach, probs)
	}
	return out
}

// TableProb returns P(T|O) (Eq 5) given per-attribute discovery
// probabilities indexed like Attrs(); attrs outside the organization
// contribute nothing.
func (o *Org) TableProb(t *lake.Table, attrProbs []float64) float64 {
	idx := o.attrIndex()
	fail := 1.0
	for _, a := range t.Attrs {
		if i, ok := idx[a]; ok {
			fail *= 1 - attrProbs[i]
		}
	}
	return 1 - fail
}

// attrIndex maps organized attribute IDs to their position in Attrs().
// The map is precomputed by buildAttrIndex at every construction funnel
// (buildBase, Import) — never built lazily here — so concurrent readers
// (TableProb, Effectiveness under a serving snapshot) share an
// immutable map instead of racing a first-call initialization.
func (o *Org) attrIndex() map[lake.AttrID]int {
	if o.attrIdx == nil {
		// A nil index means a construction path skipped buildAttrIndex —
		// a programming error on par with negative support counts.
		panic("core: attrIndex read before buildAttrIndex")
	}
	return o.attrIdx
}

// buildAttrIndex precomputes attrIdx from attrs. Every Org constructor
// must call it after the organized attribute set is final: the index is
// immutable afterwards (operations rearrange interior states but never
// change the attribute set), which is what makes concurrent evaluation
// safe without a lock.
func (o *Org) buildAttrIndex() {
	o.attrIdx = make(map[lake.AttrID]int, len(o.attrs))
	for i, a := range o.attrs {
		o.attrIdx[a] = i
	}
}

// Effectiveness returns P(T|O) averaged over the lake's live tables
// (Eq 6), computed exactly. Tables with no organized attribute
// contribute 0, matching the paper's observation that single-attribute,
// single-tag tables stay hard to discover; tombstoned tables are not
// part of the lake and do not count.
func (o *Org) Effectiveness() float64 {
	probs := o.AttrDiscoveryProbs()
	var sum float64
	live := 0
	for _, t := range o.Lake.Tables {
		if t.Removed {
			continue
		}
		sum += o.TableProb(t, probs)
		live++
	}
	if live == 0 {
		return 0
	}
	return sum / float64(live)
}

// Walk simulates one navigation session: starting at the root, sample a
// child per the transition model until a leaf is reached. It returns
// the visited states, root first, leaf last. The rng makes sessions
// reproducible; a nil rng takes the most probable child at every step.
func (o *Org) Walk(topic vector.Vector, rng *rand.Rand) []StateID {
	topicNorm := vector.Norm(topic)
	scratch := make([]float64, o.maxFanOut())
	path := []StateID{o.Root}
	cur := o.Root
	for {
		children := o.States[cur].Children
		if len(children) == 0 {
			return path
		}
		probs := o.transitionsInto(cur, topic, topicNorm, nil, scratch)
		var next StateID
		if rng == nil {
			best, bp := 0, -1.0
			for i, p := range probs {
				if p > bp {
					bp, best = p, i
				}
			}
			next = children[best]
		} else {
			u := rng.Float64()
			acc := 0.0
			next = children[len(children)-1]
			for i, p := range probs {
				acc += p
				if u <= acc {
					next = children[i]
					break
				}
			}
		}
		path = append(path, next)
		cur = next
	}
}
