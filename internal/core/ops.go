package core

import "fmt"

// The two search operations of Sec 3.3 — ADD_PARENT and DELETE_PARENT —
// plus their leaf-level variants (Example 4 adds a second tag-state
// parent to a leaf). Every operation returns an UndoLog; applying the
// log restores the organization's edge sets, deleted flags, domains and
// support counts exactly, which the optimizer's Metropolis reject path
// depends on. It does not restore bits it never saved: a restored edge
// is re-appended, so a child or parent list can come back in another
// order, and the moved topics are recomputed through the
// vector.Running accumulators, where (s+x)−x need not equal s.
//
// Operations are composed from four reversible primitives. Because a
// linkChild immediately followed (in reverse order) by an unlinkChild of
// the same edge is its inverse — domains involved are stable within a
// single operation — undo is simply the inverse primitives in reverse
// order, with no support snapshotting.

type actionKind int

const (
	aLink      actionKind = iota // linkChild(p, c)
	aUnlink                      // unlinkChild(p, c)
	aRawRemove                   // removeEdge(p, c) without domain maintenance
	aDelete                      // mark state p deleted
)

type action struct {
	kind actionKind
	p, c StateID
}

// UndoLog records the primitive actions of one operation in application
// order.
type UndoLog struct {
	actions []action
}

func (u *UndoLog) record(o *Org, kind actionKind, p, c StateID) {
	switch kind {
	case aLink:
		o.linkChild(p, c)
	case aUnlink:
		o.unlinkChild(p, c)
	case aRawRemove:
		o.removeEdge(p, c)
	case aDelete:
		o.States[p].deleted = true
		o.noteEliminated(p)
		o.invalidate()
	}
	u.actions = append(u.actions, action{kind, p, c})
}

// Undo reverses the operation that produced u: edge sets, deleted flags,
// domains and support counts come back exactly, adjacency order and
// topic bits need not (see above). It must be applied to the
// organization in exactly the state the operation left it in.
func (o *Org) Undo(u *UndoLog) {
	for i := len(u.actions) - 1; i >= 0; i-- {
		a := u.actions[i]
		switch a.kind {
		case aLink:
			o.unlinkChild(a.p, a.c)
		case aUnlink:
			o.linkChild(a.p, a.c)
		case aRawRemove:
			o.addEdge(a.p, a.c)
		case aDelete:
			o.States[a.p].deleted = false
			o.invalidate()
		}
	}
}

// AddParentOp applies Operation I: state n becomes a new parent of s.
// The inclusion property is maintained by adding D_s to n and to every
// ancestor of n where it is not yet covered. Callers must ensure n is
// not already a parent of s and that s is not an ancestor of n (which
// would create a cycle); CanAddParent checks both.
func (o *Org) AddParentOp(n, s StateID) *UndoLog {
	if !o.CanAddParent(n, s) {
		panic(fmt.Sprintf("core: invalid AddParent(%d, %d)", n, s))
	}
	u := &UndoLog{}
	u.record(o, aLink, n, s)
	return u
}

// CanAddParent reports whether AddParentOp(n, s) is structurally legal:
// distinct live states, n can bear children of s's kind (interior states
// parent tag/interior states; tag states parent leaves), the edge does
// not yet exist, and s is not an ancestor of n.
func (o *Org) CanAddParent(n, s StateID) bool {
	if n == s {
		return false
	}
	ns, ss := o.States[n], o.States[s]
	if ns.deleted || ss.deleted {
		return false
	}
	switch ss.Kind {
	case KindLeaf:
		// Leaves only hang under tag states (Sec 3.2 fixes the bottom
		// two levels; Example 4 adds tag-state parents to leaves).
		if ns.Kind != KindTag {
			return false
		}
	default:
		// Tag and interior states only hang under interior states.
		if ns.Kind != KindInterior {
			return false
		}
	}
	if o.hasEdge(n, s) {
		return false
	}
	// Cycle check: s must not be an ancestor of n.
	return !o.isDescendant(s, n)
}

// CanDeleteParent reports whether DeleteParentOp(s, r) is legal: r is a
// live interior non-root parent of s.
func (o *Org) CanDeleteParent(s, r StateID) bool {
	rs := o.States[r]
	if rs.deleted || rs.Kind != KindInterior || r == o.Root {
		return false
	}
	return o.hasEdge(r, s)
}

// DeleteParentOp applies Operation II: parent r of s is eliminated, and
// so is every interior (multi-tag) sibling of r, reconnecting the
// children of each eliminated state to its parents. Tag states ("siblings
// with one tag"), leaves, and the root are never eliminated. Callers
// validate with CanDeleteParent.
func (o *Org) DeleteParentOp(s, r StateID) *UndoLog {
	if !o.CanDeleteParent(s, r) {
		panic(fmt.Sprintf("core: invalid DeleteParent(%d, %d)", s, r))
	}
	// Collect the elimination set: r's interior, non-root siblings, then
	// r itself. Deterministic order: siblings in parent child-list order.
	var elim []StateID
	seen := map[StateID]bool{r: true}
	for _, p := range o.States[r].Parents {
		for _, sib := range o.States[p].Children {
			if seen[sib] {
				continue
			}
			seen[sib] = true
			st := o.States[sib]
			if st.Kind == KindInterior && sib != o.Root && !st.deleted {
				elim = append(elim, sib)
			}
		}
	}
	elim = append(elim, r)

	u := &UndoLog{}
	for _, e := range elim {
		if o.States[e].deleted {
			continue // eliminated earlier in this same operation
		}
		o.eliminate(u, e)
	}
	return u
}

// eliminate removes state e from the organization: its children are
// linked to its live parents, then e is disconnected and tombstoned.
func (o *Org) eliminate(u *UndoLog, e StateID) {
	parents := append([]StateID(nil), o.States[e].Parents...)
	children := append([]StateID(nil), o.States[e].Children...)
	// 1. Bridge: every (parent, child) pair gets an edge unless present.
	//    Linking first keeps every domain's membership stable, so no
	//    accumulator churn happens during elimination.
	for _, p := range parents {
		for _, c := range children {
			if !o.hasEdge(p, c) {
				u.record(o, aLink, p, c)
			}
		}
	}
	// 2. Detach e from its parents with domain maintenance (support for
	//    D_e drops; membership survives via the bridged children).
	for _, p := range parents {
		u.record(o, aUnlink, p, e)
	}
	// 3. Detach e's children without touching e's own frozen domain.
	for _, c := range children {
		u.record(o, aRawRemove, e, c)
	}
	// 4. Tombstone.
	u.record(o, aDelete, e, -1)
}

// CanRemoveLeafParent reports whether the t → leaf edge can be dropped:
// it exists and leaf keeps at least one other parent.
func (o *Org) CanRemoveLeafParent(t, leaf StateID) bool {
	if o.States[leaf].Kind != KindLeaf {
		return false
	}
	return o.hasEdge(t, leaf) && len(o.States[leaf].Parents) >= 2
}

// RemoveLeafParentOp drops the t → leaf edge (the leaf-level
// DELETE_PARENT: no state is eliminated because the penultimate level
// is fixed, the leaf just stops being reachable through t).
func (o *Org) RemoveLeafParentOp(t, leaf StateID) *UndoLog {
	if !o.CanRemoveLeafParent(t, leaf) {
		panic(fmt.Sprintf("core: invalid RemoveLeafParent(%d, %d)", t, leaf))
	}
	u := &UndoLog{}
	u.record(o, aUnlink, t, leaf)
	return u
}
