package core

import (
	"fmt"
	"testing"

	"lakenav/vector"
)

// snapshot captures the observable structure of an org for exact
// restore checks.
type orgSnapshot struct {
	edges   map[[2]StateID]bool
	deleted map[StateID]bool
	domains map[StateID]string
	topics  map[StateID]vector.Vector
}

func snapshotOrg(o *Org) orgSnapshot {
	snap := orgSnapshot{
		edges:   make(map[[2]StateID]bool),
		deleted: make(map[StateID]bool),
		domains: make(map[StateID]string),
		topics:  make(map[StateID]vector.Vector),
	}
	for _, s := range o.States {
		snap.deleted[s.ID] = s.deleted
		for _, c := range s.Children {
			snap.edges[[2]StateID{s.ID, c}] = true
		}
		dom := ""
		for _, a := range s.Domain() {
			dom += string(rune('A' + int(a)))
		}
		snap.domains[s.ID] = dom
		snap.topics[s.ID] = s.Topic().Clone()
	}
	return snap
}

func assertSnapshotEqual(t *testing.T, want, got orgSnapshot) {
	t.Helper()
	if len(want.edges) != len(got.edges) {
		t.Fatalf("edge count %d != %d", len(got.edges), len(want.edges))
	}
	for e := range want.edges {
		if !got.edges[e] {
			t.Fatalf("edge %v lost", e)
		}
	}
	for id, d := range want.deleted {
		if got.deleted[id] != d {
			t.Fatalf("state %d deleted=%v, want %v", id, got.deleted[id], d)
		}
	}
	for id, dom := range want.domains {
		if got.domains[id] != dom {
			t.Fatalf("state %d domain %q, want %q", id, got.domains[id], dom)
		}
	}
	for id, topic := range want.topics {
		if !vector.Equal(topic, got.topics[id], 1e-9) {
			t.Fatalf("state %d topic drifted", id)
		}
	}
}

func clusteredOrg(t *testing.T) *Org {
	t.Helper()
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// pickInterior returns a non-root interior state.
func pickInterior(t *testing.T, o *Org) StateID {
	t.Helper()
	for _, s := range o.States {
		if s.Kind == KindInterior && s.ID != o.Root && !s.deleted {
			return s.ID
		}
	}
	t.Fatal("no non-root interior state")
	return -1
}

func TestAddParentOpMaintainsInclusion(t *testing.T) {
	o := clusteredOrg(t)
	// Find a tag state and an interior state that is not its parent.
	ts := o.tagStateID("fishery")
	var n StateID = -1
	for _, s := range o.States {
		if s.Kind == KindInterior && o.CanAddParent(s.ID, ts) {
			n = s.ID
			break
		}
	}
	if n == -1 {
		t.Skip("no legal AddParent in this structure")
	}
	before := o.State(n).DomainSize()
	u := o.AddParentOp(n, ts)
	if u == nil {
		t.Fatal("nil undo log")
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("after AddParent: %v", err)
	}
	if !o.hasEdge(n, ts) {
		t.Error("edge not added")
	}
	if o.State(n).DomainSize() < before {
		t.Error("parent domain shrank")
	}
	// Root must now (still) cover the tag state's attrs.
	for _, a := range o.State(ts).Domain() {
		if !o.State(o.Root).HasAttr(a) {
			t.Errorf("root missing attr %d", a)
		}
	}
}

func TestAddParentUndoExact(t *testing.T) {
	o := clusteredOrg(t)
	ts := o.tagStateID("grain")
	var n StateID = -1
	for _, s := range o.States {
		if s.Kind == KindInterior && o.CanAddParent(s.ID, ts) {
			n = s.ID
			break
		}
	}
	if n == -1 {
		t.Skip("no legal AddParent")
	}
	want := snapshotOrg(o)
	u := o.AddParentOp(n, ts)
	o.Undo(u)
	assertSnapshotEqual(t, want, snapshotOrg(o))
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCanAddParentRules(t *testing.T) {
	o := clusteredOrg(t)
	ts := o.tagStateID("fishery")
	leaf := o.Leaf(o.Attrs()[0])
	root := o.Root

	if o.CanAddParent(ts, ts) {
		t.Error("self-parent allowed")
	}
	// Tag state cannot parent a tag state.
	if o.CanAddParent(ts, o.tagStateID("grain")) {
		t.Error("tag-state parent of tag state allowed")
	}
	// Leaf cannot be a parent at all.
	if o.CanAddParent(leaf, ts) {
		t.Error("leaf parent allowed")
	}
	// Interior cannot parent a leaf.
	if o.CanAddParent(root, leaf) {
		t.Error("interior parent of leaf allowed")
	}
	// Existing parent rejected.
	p := o.State(ts).Parents[0]
	if o.CanAddParent(p, ts) {
		t.Error("duplicate edge allowed")
	}
	// Cycle rejected: root is an ancestor of everything, so making the
	// root a child of one of its descendants must be illegal.
	inner := pickInterior(t, o)
	if o.CanAddParent(inner, root) {
		t.Error("cycle-creating edge allowed")
	}
}

// The cycle check behind CanAddParent allocates nothing once its
// Org-owned marks and stack have grown to the organization, whether it
// finds the candidate below or exhausts the subgraph.
func TestCanAddParentZeroAllocs(t *testing.T) {
	o := kernelTestOrg(t, 5)
	root := o.States[o.Root]
	var top StateID = -1
	for _, c := range root.Children {
		if o.States[c].Kind == KindInterior {
			top = c
			break
		}
	}
	if top < 0 {
		t.Fatal("no interior child under the root")
	}
	// A state with a cycle check that descends and fails: an interior
	// state not above top that is not yet its parent.
	var other StateID = -1
	for _, s := range o.States {
		if s.Kind == KindInterior && !s.deleted && s.ID != o.Root && s.ID != top && !o.isDescendant(s.ID, top) && !o.isDescendant(top, s.ID) {
			other = s.ID
			break
		}
	}
	if other < 0 {
		t.Fatal("no interior state beside the root's interior child")
	}
	// A cycle found below the first level: an interior descendant of
	// top that is not its child cannot become top's parent.
	deep := top
	for _, s := range o.States {
		if s.Kind == KindInterior && !s.deleted && s.ID != top && !containsID(o.States[top].Children, s.ID) && o.isDescendant(top, s.ID) {
			deep = s.ID
			break
		}
	}
	if deep == top {
		t.Fatal("no interior state below the root's interior child's children")
	}
	cases := []struct {
		name string
		n, s StateID
		want bool
	}{
		{"cycle", deep, top, false},
		{"legal", other, top, o.CanAddParent(other, top)},
	}
	for _, c := range cases {
		if got := o.CanAddParent(c.n, c.s); got != c.want {
			t.Fatalf("%s: CanAddParent(%d, %d) = %v, want %v", c.name, c.n, c.s, got, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { o.CanAddParent(c.n, c.s) }); n != 0 {
			t.Errorf("%s: CanAddParent allocates %.1f per call, want 0", c.name, n)
		}
	}
}

func TestDeleteParentOpFlattens(t *testing.T) {
	o := clusteredOrg(t)
	r := pickInterior(t, o)
	// s: any child of r.
	s := o.State(r).Children[0]
	if !o.CanDeleteParent(s, r) {
		t.Fatal("CanDeleteParent false for valid input")
	}
	grandparents := append([]StateID(nil), o.State(r).Parents...)
	u := o.DeleteParentOp(s, r)
	if u == nil {
		t.Fatal("nil undo log")
	}
	if !o.State(r).Deleted() {
		t.Error("r not eliminated")
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("after DeleteParent: %v", err)
	}
	// s must now be a child of r's former parents.
	for _, gp := range grandparents {
		if o.State(gp).Deleted() {
			continue
		}
		if !o.hasEdge(gp, s) {
			t.Errorf("s not bridged to grandparent %d", gp)
		}
	}
	// s still reachable from root.
	if !o.isDescendant(o.Root, s) {
		t.Error("s unreachable after DeleteParent")
	}
}

func TestDeleteParentEliminatesInteriorSiblingsOnly(t *testing.T) {
	o := clusteredOrg(t)
	r := pickInterior(t, o)
	s := o.State(r).Children[0]
	// Record the sibling set before the op.
	sibInterior := map[StateID]bool{}
	sibTag := map[StateID]bool{}
	for _, p := range o.State(r).Parents {
		for _, sib := range o.State(p).Children {
			if sib == r {
				continue
			}
			if o.State(sib).Kind == KindInterior && sib != o.Root {
				sibInterior[sib] = true
			} else if o.State(sib).Kind == KindTag {
				sibTag[sib] = true
			}
		}
	}
	o.DeleteParentOp(s, r)
	for sib := range sibInterior {
		if !o.State(sib).Deleted() {
			t.Errorf("interior sibling %d survived", sib)
		}
	}
	for sib := range sibTag {
		if o.State(sib).Deleted() {
			t.Errorf("tag sibling %d eliminated", sib)
		}
	}
}

func TestDeleteParentUndoExact(t *testing.T) {
	o := clusteredOrg(t)
	r := pickInterior(t, o)
	s := o.State(r).Children[0]
	want := snapshotOrg(o)
	u := o.DeleteParentOp(s, r)
	o.Undo(u)
	assertSnapshotEqual(t, want, snapshotOrg(o))
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCanDeleteParentRules(t *testing.T) {
	o := clusteredOrg(t)
	ts := o.tagStateID("fishery")
	leaf := o.State(ts).Children[0]
	// Root cannot be eliminated.
	rootChild := o.State(o.Root).Children[0]
	if o.CanDeleteParent(rootChild, o.Root) {
		t.Error("root elimination allowed")
	}
	// Tag states cannot be eliminated.
	if o.CanDeleteParent(leaf, ts) {
		t.Error("tag-state elimination allowed")
	}
	// Non-parent rejected.
	inner := pickInterior(t, o)
	if !o.hasEdge(inner, ts) && o.CanDeleteParent(ts, inner) {
		t.Error("non-parent elimination allowed")
	}
}

func TestAddLeafParentOp(t *testing.T) {
	o := clusteredOrg(t)
	// product (fish+grain) is under fishery and grain; city is not a
	// parent.
	var product StateID = -1
	for _, a := range o.Attrs() {
		if o.Lake.Attr(a).Name == "product" {
			product = o.Leaf(a)
		}
	}
	if product == -1 {
		t.Fatal("product leaf missing")
	}
	city := o.tagStateID("city")
	if !o.CanAddParent(city, product) {
		t.Fatal("CanAddParent(city, product) false")
	}
	before := o.State(city).DomainSize()
	want := snapshotOrg(o)
	u := o.addLeafParentOp(city, product)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if o.State(city).DomainSize() != before+1 {
		t.Error("city domain did not grow")
	}
	// The city tag state's topic must have moved toward the product
	// attribute.
	o.Undo(u)
	assertSnapshotEqual(t, want, snapshotOrg(o))
}

func TestRemoveLeafParentOp(t *testing.T) {
	o := clusteredOrg(t)
	var product StateID = -1
	for _, a := range o.Attrs() {
		if o.Lake.Attr(a).Name == "product" {
			product = o.Leaf(a)
		}
	}
	parents := o.State(product).Parents
	if len(parents) != 2 {
		t.Fatalf("product has %d parents, want 2 (fishery, grain)", len(parents))
	}
	tag := parents[0]
	if !o.CanRemoveLeafParent(tag, product) {
		t.Fatal("CanRemoveLeafParent false")
	}
	want := snapshotOrg(o)
	u := o.RemoveLeafParentOp(tag, product)
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(o.State(product).Parents) != 1 {
		t.Error("parent not removed")
	}
	o.Undo(u)
	assertSnapshotEqual(t, want, snapshotOrg(o))

	// Removing the last parent is illegal.
	single := o.Leaf(o.Attrs()[0])
	if len(o.State(single).Parents) == 1 && o.CanRemoveLeafParent(o.State(single).Parents[0], single) {
		t.Error("removing sole parent allowed")
	}
}

func TestChangeSetRecordsOps(t *testing.T) {
	o := clusteredOrg(t)
	ts := o.tagStateID("grain")
	var n StateID = -1
	for _, s := range o.States {
		if s.Kind == KindInterior && o.CanAddParent(s.ID, ts) {
			n = s.ID
			break
		}
	}
	if n == -1 {
		t.Skip("no legal AddParent")
	}
	cs := o.BeginChanges()
	o.AddParentOp(n, ts)
	o.EndChanges()
	if !cs.ChildrenChanged[n] {
		t.Error("ChildrenChanged missing new parent")
	}
	// If n did not already cover grain's attributes through another
	// child, its topic must have been recorded as changed.
	covered := true
	for _, a := range o.State(ts).Domain() {
		// After the op n covers everything; support > 1 means another
		// child also supplies it.
		if o.State(n).supportOf(a) == 1 {
			covered = false
		}
	}
	if !covered && len(cs.TopicChanged) == 0 {
		t.Error("no topic changes recorded despite new domain attrs")
	}
}

func TestChangeSetRecordsElimination(t *testing.T) {
	o := clusteredOrg(t)
	r := pickInterior(t, o)
	s := o.State(r).Children[0]
	cs := o.BeginChanges()
	o.DeleteParentOp(s, r)
	o.EndChanges()
	if len(cs.Eliminated) == 0 {
		t.Error("no eliminations recorded")
	}
	found := false
	for _, e := range cs.Eliminated {
		if e == r {
			found = true
		}
	}
	if !found {
		t.Error("r not in eliminated set")
	}
}

func TestOpSequenceStaysValid(t *testing.T) {
	// Stress: apply a long random-ish but deterministic sequence of ops
	// with occasional undos; Validate after each.
	o := clusteredOrg(t)
	applied := 0
	for round := 0; round < 30; round++ {
		progressed := false
		// Try an AddParent.
		for _, s := range o.States {
			if s.deleted || s.Kind == KindLeaf {
				continue
			}
			done := false
			for _, n := range o.States {
				if n.Kind != KindInterior || n.deleted || !o.CanAddParent(n.ID, s.ID) {
					continue
				}
				u := o.AddParentOp(n.ID, s.ID)
				if err := o.Validate(); err != nil {
					t.Fatalf("round %d AddParent(%d,%d): %v", round, n.ID, s.ID, err)
				}
				if round%3 == 0 {
					o.Undo(u)
					if err := o.Validate(); err != nil {
						t.Fatalf("round %d undo: %v", round, err)
					}
				}
				applied++
				done = true
				break
			}
			if done {
				progressed = true
				break
			}
		}
		// Try a DeleteParent.
		for _, s := range o.States {
			if s.deleted {
				continue
			}
			for _, r := range append([]StateID(nil), s.Parents...) {
				if !o.CanDeleteParent(s.ID, r) {
					continue
				}
				u := o.DeleteParentOp(s.ID, r)
				if err := o.Validate(); err != nil {
					t.Fatalf("round %d DeleteParent(%d,%d): %v", round, s.ID, r, err)
				}
				if round%2 == 0 {
					o.Undo(u)
					if err := o.Validate(); err != nil {
						t.Fatalf("round %d undo delete: %v", round, err)
					}
				}
				applied++
				progressed = true
				break
			}
			if progressed {
				break
			}
		}
		if !progressed {
			break
		}
	}
	if applied == 0 {
		t.Fatal("stress test applied no operations")
	}
}

// addLeafParentOp links tag state t as an additional parent of leaf
// (Example 4's move), so tests can build DAG-shaped organizations.
func (o *Org) addLeafParentOp(t, leaf StateID) *UndoLog {
	if o.States[leaf].Kind != KindLeaf || !o.CanAddParent(t, leaf) {
		panic(fmt.Sprintf("core: invalid AddLeafParent(%d, %d)", t, leaf))
	}
	u := &UndoLog{}
	u.record(o, aLink, t, leaf)
	return u
}
