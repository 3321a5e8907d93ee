package core

import "lakenav/vector"

// topicArena is the flat kernel arena: every state topic vector of one
// organization packed into a single contiguous []float64 block, with a
// parallel norm table, both indexed by the state's dense ID. The
// navigation hot path (transitionsInto and everything built on it)
// walks the block directly — one slice index per child instead of a
// *State dereference per cosine — which is what lets the evaluator's
// worker pool scale instead of stalling on pointer-chasing cache
// misses (ROADMAP: the parallel evaluator losing to serial).
//
// Ownership rules:
//
//   - The arena is owned by the Org and created at the construction
//     funnels (buildBase, Import). Each state's slot is int(State.ID).
//   - State.topic is a capacity-clamped view into the block, installed
//     exclusively by the setTopic funnel (install is its storage
//     backend); State.topicNorm mirrors norms[slot]. The lakelint
//     topicfunnel invariant is unchanged: setTopic remains the only
//     writer of the State fields.
//   - Growth happens only in Org.newState. When the block reallocates,
//     every live view is rebound through setTopic (rebindTopics), so a
//     view can never dangle into a stale backing array. Callers that
//     retain Topic() views (e.g. evaluator queries) must not outlive a
//     state addition — the same staleness rule the evaluator enforces
//     with its own state-count check.
//   - States whose topic was never set keep a nil view; their slot
//     stays zeroed and their norm 0, so the kernel scores them cos 0,
//     exactly as vector.CosineNorms does for a zero-norm vector.
type topicArena struct {
	dim   int
	vecs  []float64
	norms []float64
	// scratch is a dim-length vector that State.refreshTopic computes a
	// mean into before setTopic copies it into the state's slot.
	scratch vector.Vector
}

// newTopicArena returns an empty arena for dim-dimensional topics.
func newTopicArena(dim int) *topicArena {
	return &topicArena{dim: dim, scratch: vector.New(dim)}
}

// reserve sizes an empty arena for n slots, so a caller that knows how
// many states it will add fills the blocks without regrowing them.
func (a *topicArena) reserve(n int) {
	a.vecs = make([]float64, 0, n*a.dim)
	a.norms = make([]float64, 0, n)
}

// slots returns the number of materialized slots.
func (a *topicArena) slots() int { return len(a.norms) }

// grow ensures the arena holds at least n slots, zero-filled, and
// reports whether the vector block's backing array moved (in which
// case every outstanding view must be rebound). Capacity doubles so
// rebinds stay O(log n) over an organization's lifetime.
func (a *topicArena) grow(n int) (moved bool) {
	if n <= a.slots() {
		return false
	}
	need := n * a.dim
	if need > cap(a.vecs) {
		newCap := 2 * cap(a.vecs)
		if newCap < need {
			newCap = need
		}
		nv := make([]float64, need, newCap)
		copy(nv, a.vecs)
		a.vecs = nv
		moved = true
	} else {
		a.vecs = a.vecs[:need]
	}
	for a.slots() < n {
		a.norms = append(a.norms, 0)
	}
	return moved
}

// view returns the slot's vector block, capacity-clamped so an append
// through the view can never clobber a neighboring slot.
func (a *topicArena) view(slot int) vector.Vector {
	off := slot * a.dim
	return a.vecs[off : off+a.dim : off+a.dim]
}

// install copies t into the slot, recomputes the slot norm, and returns
// the (view, norm) pair for setTopic to mirror into the State fields.
// The norm is computed over the copied values, so it is bit-identical
// to vector.Norm(t).
func (a *topicArena) install(slot int, t vector.Vector) (vector.Vector, float64) {
	v := a.view(slot)
	copy(v, t)
	n := vector.Norm(v)
	a.norms[slot] = n
	return v, n
}

// clear zeroes the slot's vector block and norm, so the kernel fast
// path scores the state cos 0 — the convention for unset topics.
func (a *topicArena) clear(slot int) {
	v := a.view(slot)
	for i := range v {
		v[i] = 0
	}
	a.norms[slot] = 0
}

// rebindTopics repoints every arena-backed topic view at the arena's
// current backing array, through the setTopic funnel so the view/norm
// pair is re-established in the one place allowed to write it. Called
// after a growth reallocation; values are unchanged (grow copied them),
// only the slice headers move.
func (o *Org) rebindTopics() {
	for _, s := range o.States {
		if s.arn != nil && s.topic != nil {
			s.setTopic(s.topic)
		}
	}
}
