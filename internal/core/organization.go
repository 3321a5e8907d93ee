// Package core implements the paper's primary contribution: data lake
// organizations and the algorithms that construct them (Nargesian, Pu,
// Zhu, Ghadiri Bashardoost, Miller: "Organizing Data Lakes for
// Navigation", SIGMOD 2020).
//
// An Org is a rooted DAG over three kinds of states (Sec 2.1, 3.2):
//
//   - leaf states, one per text attribute, whose domain is the attribute;
//   - tag states, one per metadata tag, whose children are the leaves of
//     the attributes carrying the tag (data(t), Definition 5);
//   - interior states (including the root) whose domains are the unions
//     of their children's domains (the inclusion property).
//
// The navigation model (Sec 2.2–2.3) is a Markov chain over this DAG:
// the probability of stepping from state s to child c under query topic
// X is a softmax with logit (γ/|ch(s)|)·cos(μ_c, μ_X) (Eq 1), reach
// probabilities compose over parents (Eq 4), and an attribute's
// discovery probability is the reach probability of its leaf.
//
// Domains are maintained with per-(state, attribute) child-support
// counts, so ADD_PARENT and DELETE_PARENT update domains and topic
// accumulators incrementally and reversibly, which the optimizer's
// Metropolis accept/reject step (Eq 9) relies on.
package core

import (
	"fmt"
	"math"
	"sort"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// StateID identifies a state within its Org. IDs are dense indices into
// Org.States; deleted states leave tombstones.
type StateID int

// Kind distinguishes the three state roles.
type Kind int

const (
	// KindLeaf is a single-attribute state (the organization's leaves).
	KindLeaf Kind = iota
	// KindTag is a single-tag state: the fixed penultimate level.
	KindTag
	// KindInterior is a multi-tag state created by clustering or search,
	// including the root.
	KindInterior
)

// String returns the kind name.
func (k Kind) String() string {
	switch k {
	case KindLeaf:
		return "leaf"
	case KindTag:
		return "tag"
	case KindInterior:
		return "interior"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// State is one node of an organization.
type State struct {
	ID   StateID
	Kind Kind
	// Attr is the attribute of a leaf state (valid when Kind == KindLeaf).
	Attr lake.AttrID
	// Tags is M_s: the single tag of a tag state, or the tag set of an
	// interior state. Empty for leaves.
	Tags []string

	// Children and Parents are adjacency lists; order is insertion order
	// and is deterministic given the same operation sequence.
	Children []StateID
	Parents  []StateID

	// support counts, per attribute in the domain, how many direct
	// children's domains contain it; membership is support > 0. Nil for
	// leaves (their domain is implicitly {Attr}).
	support map[lake.AttrID]int
	// run accumulates the embedded-value population of the domain; its
	// mean is the state's topic vector μ_s (Definitions 4–5). Nil for
	// leaves (they use the attribute's precomputed topic).
	run *vector.Running
	// arn, when non-nil, is the owning Org's flat topic arena; setTopic
	// stores the vector there and keeps topic as a view into it.
	arn *topicArena
	// topic caches run's mean (or the attribute topic for leaves). When
	// arn is non-nil it is a view into the arena's contiguous block.
	topic vector.Vector
	// topicNorm caches ‖topic‖₂ so every cosine against the state costs
	// one Dot (vector.CosineNorms) instead of two Norms and a Dot. It is
	// maintained by setTopic wherever topic changes; Validate checks the
	// invariant topicNorm == Norm(topic).
	topicNorm float64

	deleted bool
}

// Deleted reports whether the state has been eliminated.
func (s *State) Deleted() bool { return s.deleted }

// Topic returns the state's topic vector μ_s.
func (s *State) Topic() vector.Vector { return s.topic }

// setTopic installs a new topic vector and its cached norm. All topic
// writes go through here so the norm can never go stale. Arena-backed
// states store the values in the Org's contiguous block and keep topic
// as a view into it; dimension-mismatched or nil vectors (possible
// only transiently, e.g. an empty Running mean) fall back to aliasing.
func (s *State) setTopic(t vector.Vector) {
	if s.arn != nil {
		if len(t) == s.arn.dim {
			s.topic, s.topicNorm = s.arn.install(int(s.ID), t)
			return
		}
		// Non-resident topic: zero the slot so the arena fast path
		// scores this state cos 0, matching the nil/zero-norm fallback.
		s.arn.clear(int(s.ID))
	}
	s.topic = t
	s.topicNorm = vector.Norm(t)
}

// HasAttr reports whether attribute a is in the state's domain D_s.
func (s *State) HasAttr(a lake.AttrID) bool {
	if s.Kind == KindLeaf {
		return s.Attr == a
	}
	return s.support[a] > 0
}

// DomainSize returns |D_s|.
func (s *State) DomainSize() int {
	if s.Kind == KindLeaf {
		return 1
	}
	return len(s.support)
}

// Domain returns the attribute IDs of D_s in ascending order.
func (s *State) Domain() []lake.AttrID {
	if s.Kind == KindLeaf {
		return []lake.AttrID{s.Attr}
	}
	out := make([]lake.AttrID, 0, len(s.support))
	for a := range s.support {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Org is an organization: a rooted DAG over a subset of a lake's
// attributes, determined by the subset of tags it is built over.
type Org struct {
	// Lake is the underlying data lake. The organization borrows its
	// attribute topic vectors and tag associations.
	Lake *lake.Lake
	// Gamma is the navigation model's γ hyper-parameter (Eq 1).
	Gamma float64

	Root   StateID
	States []*State

	// leafOf maps each organized attribute to its leaf state.
	leafOf map[lake.AttrID]StateID
	// tagState maps each organized tag to its tag state.
	tagState map[string]StateID

	// attrs is the organized attribute set in ascending order.
	attrs []lake.AttrID

	// attrIdx maps organized attributes to their index in attrs. It is
	// precomputed at construction (buildAttrIndex) and immutable after,
	// so concurrent evaluation never races an initialization.
	attrIdx map[lake.AttrID]int

	// track, when non-nil, records structural changes for the
	// incremental evaluator.
	track *ChangeSet

	// arena, when non-nil, is the flat topic arena holding every state's
	// topic vector in one contiguous block (see arena.go). Created at
	// the construction funnels (buildBase, Import); grown only by
	// newState.
	arena *topicArena

	// topo caches a topological order over live non-leaf states; nil
	// when invalidated by a structural change.
	topo []StateID
	// levels caches each state's shortest-path depth from the root; nil
	// when invalidated.
	levels []int
	// adj caches the flattened CSR adjacency snapshot the kernels sweep
	// (see adjacency.go); nil when invalidated.
	adj *adjSnapshot
}

// DefaultGamma is the navigation-model γ used when a config does not
// override it. The paper leaves γ unspecified; 20 makes a branching-2
// choice with a 0.2 cosine gap about 7:1, which reproduces the published
// gap between flat and hierarchical organizations.
const DefaultGamma = 20.0

// State returns the state with the given id.
func (o *Org) State(id StateID) *State { return o.States[id] }

// Attrs returns the organized attributes in ascending order. The slice
// must not be modified.
func (o *Org) Attrs() []lake.AttrID { return o.attrs }

// Leaf returns the leaf state of attribute a, or -1 if a is not
// organized.
func (o *Org) Leaf(a lake.AttrID) StateID {
	if id, ok := o.leafOf[a]; ok {
		return id
	}
	return -1
}

// TagStates returns the IDs of all live tag states.
func (o *Org) TagStates() []StateID {
	out := make([]StateID, 0, len(o.tagState))
	for _, id := range o.tagState {
		if !o.States[id].deleted {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// LiveStates returns the number of live (non-deleted) states.
func (o *Org) LiveStates() int {
	n := 0
	for _, s := range o.States {
		if !s.deleted {
			n++
		}
	}
	return n
}

// newState appends a fresh state and returns it. With an arena, the
// state's slot is materialized up front; if growth moved the backing
// array, every existing topic view is rebound before the new state can
// be observed.
func (o *Org) newState(kind Kind) *State {
	s := &State{ID: StateID(len(o.States)), Kind: kind, Attr: -1, arn: o.arena}
	o.States = append(o.States, s)
	if o.arena != nil && o.arena.grow(len(o.States)) {
		o.rebindTopics()
	}
	return s
}

// addEdge links parent → child without domain maintenance; callers that
// need the inclusion property updated use linkChild.
func (o *Org) addEdge(parent, child StateID) {
	p, c := o.States[parent], o.States[child]
	p.Children = append(p.Children, child)
	c.Parents = append(c.Parents, parent)
	o.noteChildrenChanged(parent)
	o.invalidate()
}

// removeEdge unlinks parent → child (no domain maintenance).
func (o *Org) removeEdge(parent, child StateID) {
	p, c := o.States[parent], o.States[child]
	p.Children = removeID(p.Children, child)
	c.Parents = removeID(c.Parents, parent)
	o.noteChildrenChanged(parent)
	o.invalidate()
}

func removeID(ids []StateID, id StateID) []StateID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}

func (o *Org) invalidate() {
	o.topo = nil
	o.levels = nil
	o.adj = nil
}

// hasEdge reports whether parent → child exists.
func (o *Org) hasEdge(parent, child StateID) bool {
	for _, c := range o.States[parent].Children {
		if c == child {
			return true
		}
	}
	return false
}

// domainAttrs returns the attribute set contributed by a child state
// (its whole domain).
func (o *Org) domainAttrs(child StateID) []lake.AttrID {
	return o.States[child].Domain()
}

// attrAccumulator returns the (sum, count) embedding accumulator of a
// single attribute.
func (o *Org) attrAccumulator(a lake.AttrID) (vector.Vector, int) {
	attr := o.Lake.Attr(a)
	return attr.EmbSum, attr.EmbCount
}

// addSupport raises the child-support of each attribute in attrs within
// state id, updating the topic accumulator on 0→1 transitions, and
// returns the attributes that newly entered the domain (which callers
// must propagate to the state's parents).
func (o *Org) addSupport(id StateID, attrs []lake.AttrID) []lake.AttrID {
	s := o.States[id]
	var entered []lake.AttrID
	for _, a := range attrs {
		s.support[a]++
		if s.support[a] == 1 {
			sum, count := o.attrAccumulator(a)
			s.run.AddWeighted(sum, count)
			entered = append(entered, a)
		}
	}
	if len(entered) > 0 {
		t, _ := s.run.Mean()
		s.setTopic(t)
		o.noteTopicChanged(id)
	}
	return entered
}

// removeSupport lowers the child-support of each attribute in attrs
// within state id and returns the attributes that left the domain.
func (o *Org) removeSupport(id StateID, attrs []lake.AttrID) []lake.AttrID {
	s := o.States[id]
	var left []lake.AttrID
	for _, a := range attrs {
		s.support[a]--
		if s.support[a] == 0 {
			delete(s.support, a)
			sum, count := o.attrAccumulator(a)
			s.run.RemoveWeighted(sum, count)
			left = append(left, a)
		} else if s.support[a] < 0 {
			panic(fmt.Sprintf("core: negative support for attr %d in state %d", a, id))
		}
	}
	if len(left) > 0 {
		t, _ := s.run.Mean()
		s.setTopic(t)
		o.noteTopicChanged(id)
	}
	return left
}

// propagateAdd raises support for attrs in state id and recursively in
// its ancestors wherever membership newly appears. It returns every
// (state, attrs-entered) pair for undo logging, in application order.
func (o *Org) propagateAdd(id StateID, attrs []lake.AttrID) []supportDelta {
	var log []supportDelta
	entered := o.addSupport(id, attrs)
	log = append(log, supportDelta{state: id, attrs: attrs})
	if len(entered) == 0 {
		return log
	}
	for _, p := range o.States[id].Parents {
		log = append(log, o.propagateAdd(p, entered)...)
	}
	return log
}

// propagateRemove lowers support for attrs in state id and recursively
// in its ancestors wherever membership disappears, returning the undo
// log in application order.
func (o *Org) propagateRemove(id StateID, attrs []lake.AttrID) []supportDelta {
	var log []supportDelta
	left := o.removeSupport(id, attrs)
	log = append(log, supportDelta{state: id, attrs: attrs})
	if len(left) == 0 {
		return log
	}
	for _, p := range o.States[id].Parents {
		log = append(log, o.propagateRemove(p, left)...)
	}
	return log
}

// supportDelta records one support change for undo.
type supportDelta struct {
	state StateID
	attrs []lake.AttrID
}

// linkChild adds edge parent → child and maintains the inclusion
// property along parent's ancestors. It returns the support log for
// undo.
func (o *Org) linkChild(parent, child StateID) []supportDelta {
	o.addEdge(parent, child)
	return o.propagateAdd(parent, o.domainAttrs(child))
}

// unlinkChild removes edge parent → child and maintains domains.
func (o *Org) unlinkChild(parent, child StateID) []supportDelta {
	o.removeEdge(parent, child)
	return o.propagateRemove(parent, o.domainAttrs(child))
}

// Levels returns each live reachable state's shortest-path depth from
// the root (root = 0); unreachable or deleted states get -1. Cached
// until the structure changes.
func (o *Org) Levels() []int {
	if o.levels != nil {
		return o.levels
	}
	levels := make([]int, len(o.States))
	for i := range levels {
		levels[i] = -1
	}
	levels[o.Root] = 0
	queue := []StateID{o.Root}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		for _, c := range o.States[id].Children {
			if levels[c] == -1 {
				levels[c] = levels[id] + 1
				queue = append(queue, c)
			}
		}
	}
	o.levels = levels
	return levels
}

// isDescendant reports whether candidate is reachable from ancestor
// (strictly below it, or equal).
func (o *Org) isDescendant(ancestor, candidate StateID) bool {
	if ancestor == candidate {
		return true
	}
	stack := []StateID{ancestor}
	seen := map[StateID]bool{ancestor: true}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range o.States[id].Children {
			if c == candidate {
				return true
			}
			if !seen[c] {
				seen[c] = true
				stack = append(stack, c)
			}
		}
	}
	return false
}

// Validate checks the organization's structural invariants: a single
// root, acyclicity, edge symmetry, the inclusion property, and topic
// accumulator consistency. Intended for tests and debugging; it is
// O(V·|D|).
func (o *Org) Validate() error {
	root := o.States[o.Root]
	if root.deleted {
		return fmt.Errorf("core: root %d deleted", o.Root)
	}
	if len(root.Parents) != 0 {
		return fmt.Errorf("core: root has parents %v", root.Parents)
	}
	for _, s := range o.States {
		if s.deleted {
			continue
		}
		for _, c := range s.Children {
			child := o.States[c]
			if child.deleted {
				return fmt.Errorf("core: state %d has deleted child %d", s.ID, c)
			}
			if !containsID(child.Parents, s.ID) {
				return fmt.Errorf("core: edge %d→%d missing back-edge", s.ID, c)
			}
			// Inclusion property: D_c ⊆ D_s.
			for _, a := range child.Domain() {
				if !s.HasAttr(a) {
					return fmt.Errorf("core: inclusion violated: attr %d in child %d not in parent %d", a, c, s.ID)
				}
			}
		}
		for _, p := range s.Parents {
			if o.States[p].deleted {
				return fmt.Errorf("core: state %d has deleted parent %d", s.ID, p)
			}
			if !containsID(o.States[p].Children, s.ID) {
				return fmt.Errorf("core: edge %d→%d missing forward edge", p, s.ID)
			}
		}
		// The cached topic norm must match the topic it was derived from
		// (the similarity-kernel invariant).
		if got, want := s.topicNorm, vector.Norm(s.topic); math.Abs(got-want) > 1e-12 {
			return fmt.Errorf("core: state %d cached topic norm %v, recomputed %v", s.ID, got, want)
		}
		// Arena residency: a set topic must be a view into the state's
		// arena slot, and the slot norm must mirror the cached norm.
		if s.arn != nil && s.topic != nil {
			if s.arn != o.arena {
				return fmt.Errorf("core: state %d bound to a foreign arena", s.ID)
			}
			slot := int(s.ID)
			if slot >= o.arena.slots() {
				return fmt.Errorf("core: state %d has no arena slot (%d slots)", s.ID, o.arena.slots())
			}
			if len(s.topic) != o.arena.dim {
				return fmt.Errorf("core: state %d topic dim %d, arena dim %d", s.ID, len(s.topic), o.arena.dim)
			}
			if &s.topic[0] != &o.arena.vecs[slot*o.arena.dim] {
				return fmt.Errorf("core: state %d topic view does not alias its arena slot", s.ID)
			}
			if o.arena.norms[slot] != s.topicNorm {
				return fmt.Errorf("core: state %d arena norm %v, cached %v", s.ID, o.arena.norms[slot], s.topicNorm)
			}
		}
		// Support counts must equal the number of children containing
		// each attribute.
		if s.Kind != KindLeaf {
			want := make(map[lake.AttrID]int)
			for _, c := range s.Children {
				for _, a := range o.States[c].Domain() {
					want[a]++
				}
			}
			if len(want) != len(s.support) {
				return fmt.Errorf("core: state %d support has %d attrs, children supply %d", s.ID, len(s.support), len(want))
			}
			for a, n := range want {
				if s.support[a] != n {
					return fmt.Errorf("core: state %d support[%d] = %d, want %d", s.ID, a, s.support[a], n)
				}
			}
		}
	}
	o.Topo() // panics on cycle
	return nil
}

func containsID(ids []StateID, id StateID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
