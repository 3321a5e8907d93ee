package core

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"

	"lakenav/internal/lake"
	"lakenav/vector"
)

func TestImportRoundTrip(t *testing.T) {
	o := clusteredOrg(t)
	// Mutate a bit so the snapshot is not just the initial build.
	rng := rand.New(rand.NewSource(43))
	for i := 0; i < 5; i++ {
		applyRandomOp(o, rng)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}

	got, err := Import(o.Lake, o.Export())
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if got.LiveStates() != o.LiveStates() {
		t.Errorf("states = %d, want %d", got.LiveStates(), o.LiveStates())
	}
	if len(got.Attrs()) != len(o.Attrs()) {
		t.Errorf("attrs = %d, want %d", len(got.Attrs()), len(o.Attrs()))
	}
	// The navigation model must behave identically: effectiveness and
	// every attribute's discovery probability match.
	if a, b := o.Effectiveness(), got.Effectiveness(); math.Abs(a-b) > 1e-9 {
		t.Errorf("effectiveness %v != %v after import", b, a)
	}
	wantProbs := o.AttrDiscoveryProbs()
	gotProbs := got.AttrDiscoveryProbs()
	for i := range wantProbs {
		if math.Abs(wantProbs[i]-gotProbs[i]) > 1e-9 {
			t.Fatalf("attr %d prob %v != %v", i, gotProbs[i], wantProbs[i])
		}
	}
}

// The organization decoder reads only full-flavor binary containers:
// garbage, a JSON export, and a structural (checkpoint-embedded)
// container are all rejected.
func TestImportRejectsGarbage(t *testing.T) {
	o := clusteredOrg(t)
	if _, err := DecodeBinOrg(o.Lake, []byte("{nope")); err == nil {
		t.Error("garbage accepted")
	}
	var buf bytes.Buffer
	if err := writeOrgJSON(o, &buf); err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinOrg(o.Lake, buf.Bytes()); err == nil {
		t.Error("JSON export accepted")
	}
	w, err := encodeBinExportedOrg(o.Export())
	if err != nil {
		t.Fatal(err)
	}
	structural, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeBinOrg(o.Lake, structural); err == nil {
		t.Error("structural container accepted at top level")
	}
}

func TestImportValidation(t *testing.T) {
	o := clusteredOrg(t)
	base := o.Export()

	// Unknown attribute.
	bad := *base
	bad.States = append([]ExportedState(nil), base.States...)
	for i := range bad.States {
		if bad.States[i].Kind == "leaf" {
			bad.States[i].Attr = "no_such.attr"
			break
		}
	}
	if _, err := Import(o.Lake, &bad); err == nil {
		t.Error("unknown attribute accepted")
	}

	// Unknown root.
	bad2 := *base
	bad2.Root = 99999
	if _, err := Import(o.Lake, &bad2); err == nil {
		t.Error("unknown root accepted")
	}

	// Cycle.
	bad3 := *base
	bad3.States = append([]ExportedState(nil), base.States...)
	// Make the root a child of one of its children.
	for i := range bad3.States {
		if bad3.States[i].ID != base.Root && bad3.States[i].Kind == "interior" {
			bad3.States[i].Children = append(bad3.States[i].Children, base.Root)
			break
		}
	}
	if _, err := Import(o.Lake, &bad3); err == nil {
		t.Error("cycle accepted")
	}

	// Bad gamma.
	for _, g := range []float64{0, math.NaN()} {
		bad4 := *base
		bad4.Gamma = g
		if _, err := Import(o.Lake, &bad4); err == nil {
			t.Errorf("gamma %v accepted", g)
		}
	}

	// Unknown kind, dangling child, duplicate state id.
	mutate := func(name string, f func(states []ExportedState)) {
		bad := *base
		bad.States = append([]ExportedState(nil), base.States...)
		f(bad.States)
		if _, err := Import(o.Lake, &bad); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	mutate("unknown kind", func(s []ExportedState) { s[0].Kind = "wormhole" })
	mutate("dangling child", func(s []ExportedState) {
		for i := range s {
			if s[i].Kind == "interior" {
				s[i].Children = append(append([]int(nil), s[i].Children...), 99999)
				return
			}
		}
	})
	mutate("duplicate state id", func(s []ExportedState) { s[1].ID = s[0].ID })
}

// An attribute has one leaf and a tag one tag state. A stored
// organization with a second of either is rejected by Import (which
// checkpoints load through) and by the binary decoder, instead of
// loading with one of the two unindexed.
func TestImportRejectsDuplicateLeafAndTagState(t *testing.T) {
	o := clusteredOrg(t)
	var leaf, tag *State
	for _, s := range o.States {
		if s.Kind == KindLeaf && leaf == nil {
			leaf = s
		}
		if s.Kind == KindTag && tag == nil {
			tag = s
		}
	}
	base := o.Export()
	nextID := len(o.States)
	withState := func(parent StateID, dup ExportedState) *ExportedOrg {
		ex := *base
		ex.States = append([]ExportedState(nil), base.States...)
		dup.ID = nextID
		for i := range ex.States {
			if ex.States[i].ID == int(parent) {
				ex.States[i].Children = append(append([]int(nil), ex.States[i].Children...), dup.ID)
			}
		}
		ex.States = append(ex.States, dup)
		return &ex
	}
	dupLeaf := withState(tag.ID, ExportedState{Kind: "leaf", Attr: o.Lake.Attr(leaf.Attr).QualifiedName(o.Lake)})
	if _, err := Import(o.Lake, dupLeaf); err == nil || !strings.Contains(err.Error(), "second leaf") {
		t.Errorf("Import of a second leaf for one attribute: err = %v", err)
	}
	dupTag := withState(o.Root, ExportedState{Kind: "tag", Tags: tag.Tags, Children: []int{int(tag.Children[0])}})
	if _, err := Import(o.Lake, dupTag); err == nil || !strings.Contains(err.Error(), "second tag state") {
		t.Errorf("Import of a second tag state for one tag: err = %v", err)
	}

	// The binary decoder, on containers encoded from organizations
	// given the same duplicates in memory.
	encodeWith := func(add func(o *Org)) []byte {
		o := clusteredOrg(t)
		add(o)
		data, err := EncodeBinOrg(o)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	leafData := encodeWith(func(o *Org) {
		s := o.newState(KindLeaf)
		s.Attr = leaf.Attr
		s.setTopic(o.Lake.Attr(leaf.Attr).Topic)
		o.linkChild(tag.ID, s.ID)
	})
	if _, err := DecodeBinOrg(o.Lake, leafData); err == nil || !strings.Contains(err.Error(), "second leaf") {
		t.Errorf("DecodeBinOrg of a second leaf for one attribute: err = %v", err)
	}
	tagData := encodeWith(func(o *Org) {
		s := o.newState(KindTag)
		s.Tags = []string{tag.Tags[0]}
		s.run = vector.NewRunning(o.Lake.Dim())
		o.linkChild(s.ID, tag.Children[0])
		o.linkChild(o.Root, s.ID)
	})
	if _, err := DecodeBinOrg(o.Lake, tagData); err == nil || !strings.Contains(err.Error(), "second tag state") {
		t.Errorf("DecodeBinOrg of a second tag state for one tag: err = %v", err)
	}
}

// Leaves hang only under tag states and tag states only under interior
// states. No operation breaks that rule, so a stored organization that
// does is rejected by Import and by the binary decoder; a leaf under
// the root used to load and move effectiveness.
func TestLoadersRejectKindRuleViolations(t *testing.T) {
	o := clusteredOrg(t)
	var leaf StateID = -1
	var tags []StateID
	for _, s := range o.States {
		if s.Kind == KindLeaf && leaf < 0 {
			leaf = s.ID
		}
		if s.Kind == KindTag {
			tags = append(tags, s.ID)
		}
	}
	if o.States[o.Root].Kind != KindInterior || leaf < 0 || len(tags) < 2 {
		t.Fatal("test organization needs an interior root, a leaf and two tag states")
	}
	cases := []struct {
		name          string
		parent, child StateID
		want          string
	}{
		{"leaf under the root", o.Root, leaf, "leaf state"},
		{"tag state under a tag state", tags[0], tags[1], "tag state"},
	}
	base := o.Export()
	for _, tc := range cases {
		ex := *base
		ex.States = append([]ExportedState(nil), base.States...)
		for i := range ex.States {
			if ex.States[i].ID == int(tc.parent) {
				ex.States[i].Children = append(append([]int(nil), ex.States[i].Children...), int(tc.child))
			}
		}
		if _, err := Import(o.Lake, &ex); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Import of a %s: err = %v", tc.name, err)
		}

		bad := clusteredOrg(t)
		bad.linkChild(tc.parent, tc.child)
		data, err := EncodeBinOrg(bad)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeBinOrg(bad.Lake, data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("DecodeBinOrg of a %s: err = %v", tc.name, err)
		}
	}
}

func TestImportNeedsTopics(t *testing.T) {
	o := clusteredOrg(t)
	ex := o.Export()
	fresh := freshLakeWithoutTopics(t)
	if _, err := Import(fresh, ex); err == nil {
		t.Error("lake without topics accepted")
	}
}

// freshLakeWithoutTopics builds a lake whose ComputeTopics has not run.
func freshLakeWithoutTopics(t *testing.T) *lake.Lake {
	t.Helper()
	l := lake.New()
	l.AddTable("t", []string{"x"}, lake.AttrSpec{Name: "a", Values: []string{"word"}})
	return l
}
