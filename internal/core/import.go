package core

import (
	"fmt"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// Every stored organization is rebuilt by one rule, whichever path
// reads it (Import from an ExportedOrg, the full binary decoder from an
// org container): materialize the states in stored order (rebuild),
// then link children before parents by ascending max-distance-to-leaf,
// stored order breaking ties (linkOrder). The link order fixes every
// Parents list, so all paths over the same structure agree bit for bit.

// Import reconstructs a functioning organization from an Export
// snapshot and the lake it was built over. Topic vectors and domains
// are recomputed from the lake (they are derived state), so the
// snapshot stays small and the lake remains the single source of truth
// for content. The lake must have computed topics and must still
// contain every attribute and tag the snapshot references — Import is
// for rebuilding on the same lake (checkpoint resume, the optimizer's
// best-so-far restore, ingest freezes), not for migrating structures
// across lakes.
func Import(l *lake.Lake, ex *ExportedOrg) (*Org, error) {
	r, err := newRebuild(l, attrIndex(l), ex.Gamma, len(ex.States))
	if err != nil {
		return nil, err
	}
	// Exported state IDs → dense refs, the positions in ex.States.
	ref := make(map[int]uint32, len(ex.States))
	for i, es := range ex.States {
		if _, dup := ref[es.ID]; dup {
			return nil, fmt.Errorf("core: import duplicate state id %d", es.ID)
		}
		ref[es.ID] = uint32(i)
		k, ok := parseKind(es.Kind)
		if !ok {
			return nil, fmt.Errorf("core: import unknown state kind %q", es.Kind)
		}
		name := es.Attr
		if k == KindTag {
			if len(es.Tags) != 1 {
				return nil, fmt.Errorf("core: import tag state %d has %d tags", es.ID, len(es.Tags))
			}
			name = es.Tags[0]
		}
		s, err := r.addState(k, name)
		if err != nil {
			return nil, err
		}
		if k == KindLeaf {
			s.setTopic(l.Attr(s.Attr).Topic)
		}
	}

	off := make([]int, len(ex.States)+1)
	children := make([]uint32, 0, len(ex.States))
	for i, es := range ex.States {
		for _, c := range es.Children {
			cr, ok := ref[c]
			if !ok {
				return nil, fmt.Errorf("core: import state %d references unknown child %d", es.ID, c)
			}
			children = append(children, cr)
		}
		off[i+1] = len(children)
	}
	childRefs := func(i int) []uint32 { return children[off[i]:off[i+1]] }
	order, err := linkOrder(len(ex.States), childRefs)
	if err != nil {
		return nil, err
	}
	// Topics are derived, so linking propagates domains and topics up
	// from the leaves; linkOrder guarantees complete child domains.
	for _, i := range order {
		for _, c := range childRefs(i) {
			r.o.linkChild(StateID(i), StateID(c))
		}
	}

	root, ok := ref[ex.Root]
	if !ok {
		return nil, fmt.Errorf("core: import root %d not among states", ex.Root)
	}
	return r.finish(StateID(root))
}

// parseKind maps an ExportedState kind name back to its Kind.
func parseKind(name string) (Kind, bool) {
	for _, k := range []Kind{KindLeaf, KindTag, KindInterior} {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// rebuild materializes a stored organization's states over a lake.
type rebuild struct {
	o      *Org
	attrOf map[string]lake.AttrID
}

// attrIndex maps the qualified name of each of l's live attributes to
// its ID, for leaf resolution. Removed attributes are invisible: a
// structure referencing one is stale relative to this lake and must
// fail, and a re-added table must resolve to its live attribute slots,
// not its tombstones. A load builds it once and shares it read-only
// between the rebuilds of all its dimensions.
func attrIndex(l *lake.Lake) map[string]lake.AttrID {
	attrOf := make(map[string]lake.AttrID, len(l.Attrs))
	for _, a := range l.Attrs {
		if !a.Removed {
			attrOf[a.QualifiedName(l)] = a.ID
		}
	}
	return attrOf
}

// newRebuild starts a rebuild of n stored states over l, resolving
// leaves through attrOf, l's attrIndex, which it only reads.
func newRebuild(l *lake.Lake, attrOf map[string]lake.AttrID, gamma float64, n int) (*rebuild, error) {
	if l.Dim() == 0 {
		return nil, fmt.Errorf("core: rebuild needs computed lake topics")
	}
	if !(gamma > 0) {
		return nil, fmt.Errorf("core: rebuild gamma %v not positive", gamma)
	}
	o := &Org{
		Lake:     l,
		Gamma:    gamma,
		Root:     -1,
		leafOf:   make(map[lake.AttrID]StateID),
		tagState: make(map[string]StateID),
		States:   make([]*State, 0, n),
		arena:    newTopicArena(l.Dim()),
	}
	o.arena.reserve(n)
	return &rebuild{o: o, attrOf: attrOf}, nil
}

// addState appends the next stored state with a fresh dense ID. name is
// a leaf's qualified attribute name or a tag state's tag; interiors
// ignore it. An attribute has one leaf and a tag one tag state, so a
// second of either is an error. No topic is set: the caller derives or
// installs it.
func (r *rebuild) addState(k Kind, name string) (*State, error) {
	o := r.o
	switch k {
	case KindLeaf:
		a, ok := r.attrOf[name]
		if !ok {
			return nil, fmt.Errorf("core: rebuild references unknown attribute %q", name)
		}
		if _, dup := o.leafOf[a]; dup {
			return nil, fmt.Errorf("core: rebuild has a second leaf for attribute %q", name)
		}
		s := o.newState(KindLeaf)
		s.Attr = a
		o.leafOf[a] = s.ID
		return s, nil
	case KindTag:
		if _, dup := o.tagState[name]; dup {
			return nil, fmt.Errorf("core: rebuild has a second tag state for tag %q", name)
		}
		s := o.newState(KindTag)
		s.Tags = []string{name}
		s.run = vector.NewRunning(o.Lake.Dim())
		o.tagState[name] = s.ID
		return s, nil
	case KindInterior:
		return o.newInterior(), nil
	}
	return nil, fmt.Errorf("core: rebuild state %d has unknown kind %d", len(o.States), int(k))
}

// finish roots the linked organization, indexes its attributes, and
// validates it.
func (r *rebuild) finish(root StateID) (*Org, error) {
	o := r.o
	o.Root = root
	o.attrs = o.States[root].Domain()
	o.buildAttrIndex()
	if err := o.Validate(); err != nil {
		return nil, fmt.Errorf("core: rebuild produced invalid organization: %w", err)
	}
	return o, nil
}

// linkOrder returns the order a stored organization's states link their
// children in: ascending max-distance-to-leaf, stored order breaking
// ties, so every child is fully linked before any parent. childRefs(i)
// is state i's children as dense refs. A ref outside [0, n) or a cycle
// is an error, found here rather than by Validate's Topo.
func linkOrder(n int, childRefs func(int) []uint32) ([]int, error) {
	parents := make([][]int32, n)
	remaining := make([]int, n)
	for i := 0; i < n; i++ {
		cs := childRefs(i)
		for _, ref := range cs {
			if ref >= uint32(n) {
				return nil, fmt.Errorf("core: state %d child ref %d out of range", i, ref)
			}
			parents[ref] = append(parents[ref], int32(i))
		}
		remaining[i] = len(cs)
	}

	// Max-distance-to-leaf per state, Kahn-style so a cycle is detected.
	depth := make([]int, n)
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if remaining[i] == 0 {
			queue = append(queue, i)
		}
	}
	processed := 0
	for len(queue) > 0 {
		i := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		for _, p := range parents[i] {
			if depth[i]+1 > depth[p] {
				depth[p] = depth[i] + 1
			}
			remaining[p]--
			if remaining[p] == 0 {
				queue = append(queue, int(p))
			}
		}
	}
	if processed != n {
		return nil, fmt.Errorf("core: edge cycle (%d of %d states ordered)", processed, n)
	}

	// Stable counting sort by depth: stored order is the tie-break.
	maxd := 0
	for _, d := range depth {
		if d > maxd {
			maxd = d
		}
	}
	pos := make([]int, maxd+2)
	for _, d := range depth {
		pos[d+1]++
	}
	for d := 1; d < len(pos); d++ {
		pos[d] += pos[d-1]
	}
	order := make([]int, n)
	for i := 0; i < n; i++ {
		order[pos[depth[i]]] = i
		pos[depth[i]]++
	}
	return order, nil
}
