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
// Domains are maintained as ascending attribute lists with per-(state,
// attribute) child-support counts, so ADD_PARENT and DELETE_PARENT
// update domains and topic accumulators incrementally and reversibly,
// which the optimizer's Metropolis accept/reject step (Eq 9) relies on.
package core

import (
	"fmt"
	"math"
	"slices"

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

	// dom lists the domain D_s in ascending attribute order, and sup[i]
	// counts how many direct children's domains contain dom[i]; an
	// attribute leaves dom when its count reaches 0. Both are nil for
	// leaves (their domain is implicitly {Attr}).
	dom []lake.AttrID
	sup []int32
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
	_, ok := slices.BinarySearch(s.dom, a)
	return ok
}

// DomainSize returns |D_s|.
func (s *State) DomainSize() int {
	if s.Kind == KindLeaf {
		return 1
	}
	return len(s.dom)
}

// Domain returns a fresh copy of the attribute IDs of D_s in ascending
// order.
func (s *State) Domain() []lake.AttrID {
	if s.Kind == KindLeaf {
		return []lake.AttrID{s.Attr}
	}
	return append([]lake.AttrID(nil), s.dom...)
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
	// attrStack is scratch for domain propagation: each addSupport or
	// removeSupport pushes the attributes whose membership it changed,
	// and the propagation frame that called it pops them once every
	// ancestor has seen them. leafDom backs the one-attribute domain
	// view of a leaf child (domainView).
	attrStack []lake.AttrID
	leafDom   [1]lake.AttrID

	// descMark, descEpoch and descStack are isDescendant's scratch: a
	// state is visited in the current search while its mark equals the
	// epoch, so no search clears the marks or allocates.
	descMark  []uint32
	descEpoch uint32
	descStack []StateID
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

// TagStates returns the IDs of all live tag states in ascending order.
func (o *Org) TagStates() []StateID {
	out := make([]StateID, 0, len(o.tagState))
	for _, s := range o.States {
		if s.Kind == KindTag && !s.deleted {
			out = append(out, s.ID)
		}
	}
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

// domainView returns the domain of state id in ascending order as a
// read-only view, with no copy: a non-leaf's own dom slice, or a leaf's
// single attribute in the Org's leafDom cell. Linking and unlinking
// read a child's domain this way while propagating it through the
// parent's ancestors, which is safe because the child is never one of
// them (the organization is acyclic), so its dom is not written while
// the view is read. The view is valid until the next domainView call.
func (o *Org) domainView(id StateID) []lake.AttrID {
	s := o.States[id]
	if s.Kind == KindLeaf {
		o.leafDom[0] = s.Attr
		return o.leafDom[:]
	}
	return s.dom
}

// attrAccumulator returns the (sum, count) embedding accumulator of a
// single attribute.
func (o *Org) attrAccumulator(a lake.AttrID) (vector.Vector, int) {
	attr := o.Lake.Attr(a)
	return attr.EmbSum, attr.EmbCount
}

// addSupport raises the child-support of each attribute in attrs (which
// must be ascending) within state id. Attributes already in the domain
// have their count bumped in place; those that newly enter it are
// added to the topic accumulator in ascending order, merged into dom
// in one pass, and returned (as the top of o.attrStack) for the caller
// to propagate to the state's parents.
//
// The ascending order is load-bearing: AddWeighted is floating-point
// addition, so the accumulator bits — and through them every topic,
// transition probability and golden hash — depend on the order the
// attributes arrive in.
func (o *Org) addSupport(id StateID, attrs []lake.AttrID) []lake.AttrID {
	s := o.States[id]
	mark := len(o.attrStack)
	lo := 0
	for _, a := range attrs {
		var found bool
		lo, found = s.bumpSupport(a, lo)
		if !found {
			sum, count := o.attrAccumulator(a)
			s.run.AddWeighted(sum, count)
			o.attrStack = append(o.attrStack, a)
		}
	}
	entered := o.attrStack[mark:]
	if len(entered) > 0 {
		s.mergeDomain(entered)
		s.refreshTopic()
		o.noteTopicChanged(id)
	}
	return entered
}

// bumpSupport increments the count of a if it is in the domain,
// searching dom from index lo on, and reports whether it was. The
// returned index is where the search for the next (larger) attribute
// may start.
//
//lakelint:hotpath
func (s *State) bumpSupport(a lake.AttrID, lo int) (int, bool) {
	i, found := slices.BinarySearch(s.dom[lo:], a)
	i += lo
	if found {
		s.sup[i]++
		return i + 1, true
	}
	return i, false
}

// mergeDomain merges the ascending attributes add, none of which is in
// the domain, into dom with count 1, in one backward pass.
func (s *State) mergeDomain(add []lake.AttrID) {
	n := len(s.dom)
	s.dom = append(s.dom, add...)
	s.sup = slices.Grow(s.sup, len(add))[:len(s.dom)]
	i, w := n-1, len(s.dom)-1
	for j := len(add) - 1; j >= 0; w-- {
		if i >= 0 && s.dom[i] > add[j] {
			s.dom[w], s.sup[w] = s.dom[i], s.sup[i]
			i--
		} else {
			s.dom[w], s.sup[w] = add[j], 1
			j--
		}
	}
}

// removeSupport lowers the child-support of each attribute in attrs
// (ascending) within state id. Attributes whose count reaches 0 are
// removed from the topic accumulator in ascending order, compacted out
// of dom in one pass, and returned (as the top of o.attrStack).
func (o *Org) removeSupport(id StateID, attrs []lake.AttrID) []lake.AttrID {
	s := o.States[id]
	mark := len(o.attrStack)
	first := -1
	lo := 0
	for _, a := range attrs {
		i, left := s.dropSupport(a, lo)
		if i < 0 {
			panic(fmt.Sprintf("core: negative support for attr %d in state %d", a, id))
		}
		if left {
			sum, count := o.attrAccumulator(a)
			s.run.RemoveWeighted(sum, count)
			o.attrStack = append(o.attrStack, a)
			if first < 0 {
				first = i
			}
		}
		lo = i + 1
	}
	left := o.attrStack[mark:]
	if len(left) > 0 {
		s.compactDomain(first)
		s.refreshTopic()
		o.noteTopicChanged(id)
	}
	return left
}

// dropSupport decrements the count of a, searching dom from index lo
// on, and returns its index and whether the count reached 0 (the entry
// stays until compactDomain). The index is -1 when a is not in the
// domain.
//
//lakelint:hotpath
func (s *State) dropSupport(a lake.AttrID, lo int) (int, bool) {
	i, found := slices.BinarySearch(s.dom[lo:], a)
	if !found {
		return -1, false
	}
	i += lo
	s.sup[i]--
	return i, s.sup[i] == 0
}

// compactDomain drops the zero-count entries of dom, the first of which
// is at index from, in one pass.
func (s *State) compactDomain(from int) {
	w := from
	for i := from; i < len(s.dom); i++ {
		if s.sup[i] != 0 {
			s.dom[w], s.sup[w] = s.dom[i], s.sup[i]
			w++
		}
	}
	s.dom, s.sup = s.dom[:w], s.sup[:w]
}

// refreshTopic recomputes the topic from the run accumulator. The mean
// goes through the arena's scratch vector into the state's slot, so no
// vector is allocated per support change.
func (s *State) refreshTopic() {
	s.run.MeanInto(s.arn.scratch)
	s.setTopic(s.arn.scratch)
}

// propagateAdd raises support for attrs in state id and recursively in
// its ancestors wherever membership newly appears.
func (o *Org) propagateAdd(id StateID, attrs []lake.AttrID) {
	mark := len(o.attrStack)
	if entered := o.addSupport(id, attrs); len(entered) > 0 {
		for _, p := range o.States[id].Parents {
			o.propagateAdd(p, entered)
		}
	}
	o.attrStack = o.attrStack[:mark]
}

// propagateRemove lowers support for attrs in state id and recursively
// in its ancestors wherever membership disappears.
func (o *Org) propagateRemove(id StateID, attrs []lake.AttrID) {
	mark := len(o.attrStack)
	if left := o.removeSupport(id, attrs); len(left) > 0 {
		for _, p := range o.States[id].Parents {
			o.propagateRemove(p, left)
		}
	}
	o.attrStack = o.attrStack[:mark]
}

// linkChild adds edge parent → child and maintains the inclusion
// property along parent's ancestors.
func (o *Org) linkChild(parent, child StateID) {
	o.addEdge(parent, child)
	o.propagateAdd(parent, o.domainView(child))
}

// unlinkChild removes edge parent → child and maintains domains.
func (o *Org) unlinkChild(parent, child StateID) {
	o.removeEdge(parent, child)
	o.propagateRemove(parent, o.domainView(child))
}

// Topo returns a topological order over all live states reachable from
// the root (parents before children), computing and caching it on
// demand. It panics if a cycle is detected — operations are responsible
// for never creating one.
//
// The order is the same as Kahn's algorithm seeded at the root with a
// FIFO queue and children visited in insertion order; it is fully
// deterministic.
func (o *Org) Topo() []StateID {
	if o.topo != nil {
		return o.topo
	}
	// Reachability from the root, counting each reached state's edges
	// into the in-degrees.
	reach := make([]bool, len(o.States))
	indeg := make([]int32, len(o.States))
	reached := 0
	stack := []StateID{o.Root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[id] {
			continue
		}
		reach[id] = true
		reached++
		for _, c := range o.States[id].Children {
			indeg[c]++
			if !reach[c] {
				stack = append(stack, c)
			}
		}
	}
	order := make([]StateID, 0, reached)
	queue := make([]StateID, 0, reached)
	if indeg[o.Root] == 0 {
		queue = append(queue, o.Root)
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		order = append(order, id)
		for _, c := range o.States[id].Children {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, c)
			}
		}
	}
	if len(order) != reached {
		panic(fmt.Sprintf("core: cycle detected (%d of %d states ordered)", len(order), reached))
	}
	o.topo = order
	return order
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
// (strictly below it, or equal). Childless states (leaves, emptied
// states) lead nowhere, so they are compared but never pushed. The
// visited marks and the stack are Org-owned scratch, so a check
// allocates only when the organization outgrew them, and, like the
// operations it guards, it must not run concurrently on one Org.
func (o *Org) isDescendant(ancestor, candidate StateID) bool {
	if ancestor == candidate {
		return true
	}
	if len(o.descMark) < len(o.States) {
		o.descMark = make([]uint32, len(o.States))
		o.descEpoch = 0
	}
	if o.descEpoch++; o.descEpoch == 0 {
		clear(o.descMark)
		o.descEpoch = 1
	}
	mark, epoch := o.descMark, o.descEpoch
	stack := o.descStack[:0]
	found := false
search:
	for id := ancestor; ; {
		for _, c := range o.States[id].Children {
			if c == candidate {
				found = true
				break search
			}
			if len(o.States[c].Children) == 0 || mark[c] == epoch {
				continue
			}
			mark[c] = epoch
			stack = append(stack, c)
		}
		if len(stack) == 0 {
			break
		}
		id = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
	}
	o.descStack = stack[:0]
	return found
}

// Validate checks the organization's structural invariants: a single
// root, acyclicity, edge symmetry, the kind rules (a leaf's parents are
// tag states, a tag state's parents interior states), the inclusion
// property, and topic accumulator consistency. Every rebuild of a
// stored organization runs it, as do tests; it is O(V·|D|).
func (o *Org) Validate() error {
	root := o.States[o.Root]
	if root.deleted {
		return fmt.Errorf("core: root %d deleted", o.Root)
	}
	if len(root.Parents) != 0 {
		return fmt.Errorf("core: root has parents %v", root.Parents)
	}
	// Dense per-attribute scratch, indexed by AttrID, for the state at
	// hand: inDom marks its domain, and supply counts the children whose
	// domain holds each attribute. Each state clears the cells it set.
	inDom := make([]bool, len(o.Lake.Attrs))
	supply := make([]int32, len(o.Lake.Attrs))
	var one, childOne [1]lake.AttrID
	for _, s := range o.States {
		if s.deleted {
			continue
		}
		dom := domainView(s, &one)
		for _, a := range dom {
			inDom[a] = true
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
			for _, a := range domainView(child, &childOne) {
				if !inDom[a] {
					return fmt.Errorf("core: inclusion violated: attr %d in child %d not in parent %d", a, c, s.ID)
				}
			}
		}
		for _, a := range dom {
			inDom[a] = false
		}
		for _, p := range s.Parents {
			parent := o.States[p]
			if parent.deleted {
				return fmt.Errorf("core: state %d has deleted parent %d", s.ID, p)
			}
			if !containsID(parent.Children, s.ID) {
				return fmt.Errorf("core: edge %d→%d missing forward edge", p, s.ID)
			}
			// Kind rules: leaves hang only under tag states, and tag
			// states only under interior states.
			if (s.Kind == KindLeaf && parent.Kind != KindTag) || (s.Kind == KindTag && parent.Kind != KindInterior) {
				return fmt.Errorf("core: %v state %d under %v state %d", s.Kind, s.ID, parent.Kind, p)
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
		// The domain must be strictly ascending and its support counts
		// must equal the number of children containing each attribute.
		if s.Kind != KindLeaf {
			if len(s.sup) != len(s.dom) {
				return fmt.Errorf("core: state %d has %d domain attrs but %d support counts", s.ID, len(s.dom), len(s.sup))
			}
			for i := 1; i < len(s.dom); i++ {
				if s.dom[i-1] >= s.dom[i] {
					return fmt.Errorf("core: state %d domain not strictly ascending at %d", s.ID, i)
				}
			}
			supplied := 0
			for _, c := range s.Children {
				for _, a := range domainView(o.States[c], &childOne) {
					if supply[a] == 0 {
						supplied++
					}
					supply[a]++
				}
			}
			if supplied != len(s.dom) {
				return fmt.Errorf("core: state %d support has %d attrs, children supply %d", s.ID, len(s.dom), supplied)
			}
			for i, a := range s.dom {
				if s.sup[i] != supply[a] {
					return fmt.Errorf("core: state %d support[%d] = %d, want %d", s.ID, a, s.sup[i], supply[a])
				}
			}
			for _, c := range s.Children {
				for _, a := range domainView(o.States[c], &childOne) {
					supply[a] = 0
				}
			}
		}
	}
	o.Topo() // panics on cycle
	return nil
}

// domainView returns D_s without Domain's copy, for read-only scans: a
// leaf's single attribute is stored in one.
func domainView(s *State, one *[1]lake.AttrID) []lake.AttrID {
	if s.Kind == KindLeaf {
		one[0] = s.Attr
		return one[:]
	}
	return s.dom
}

func containsID(ids []StateID, id StateID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
