package core

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"
)

func TestExport(t *testing.T) {
	o := clusteredOrg(t)
	ex := o.Export()
	if ex.Gamma != o.Gamma {
		t.Errorf("gamma = %v", ex.Gamma)
	}
	if ex.Root != int(o.Root) {
		t.Errorf("root = %d", ex.Root)
	}
	if len(ex.States) != o.LiveStates() {
		t.Errorf("states = %d, want %d", len(ex.States), o.LiveStates())
	}
	// Every child reference resolves to an exported state.
	ids := make(map[int]ExportedState, len(ex.States))
	for _, s := range ex.States {
		ids[s.ID] = s
	}
	leaves, tags := 0, 0
	for _, s := range ex.States {
		for _, c := range s.Children {
			if _, ok := ids[c]; !ok {
				t.Fatalf("state %d references missing child %d", s.ID, c)
			}
		}
		switch s.Kind {
		case "leaf":
			leaves++
			if s.Attr == "" {
				t.Errorf("leaf %d has no attr name", s.ID)
			}
		case "tag":
			tags++
			if len(s.Tags) != 1 {
				t.Errorf("tag state %d has tags %v", s.ID, s.Tags)
			}
		}
		if s.Label == "" {
			t.Errorf("state %d has empty label", s.ID)
		}
	}
	if leaves != len(o.Attrs()) {
		t.Errorf("exported leaves = %d, want %d", leaves, len(o.Attrs()))
	}
	if tags == 0 {
		t.Error("no tag states exported")
	}
}

func TestExportSkipsDeleted(t *testing.T) {
	o := clusteredOrg(t)
	r := pickInterior(t, o)
	s := o.State(r).Children[0]
	o.DeleteParentOp(s, r)
	ex := o.Export()
	for _, es := range ex.States {
		if es.ID == int(r) {
			t.Fatal("deleted state exported")
		}
	}
}

func TestWriteJSONRoundTrips(t *testing.T) {
	o := clusteredOrg(t)
	var buf bytes.Buffer
	if err := writeOrgJSON(o, &buf); err != nil {
		t.Fatal(err)
	}
	var ex ExportedOrg
	if err := json.Unmarshal(buf.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.States) != o.LiveStates() {
		t.Errorf("decoded states = %d", len(ex.States))
	}
}

func TestComputeMetrics(t *testing.T) {
	o := clusteredOrg(t)
	m := ComputeMetrics(o)
	if m.Leaves != len(o.Attrs()) {
		t.Errorf("leaves = %d", m.Leaves)
	}
	if m.TagStates != 4 {
		t.Errorf("tag states = %d", m.TagStates)
	}
	if m.InteriorStates != 3 {
		t.Errorf("interior = %d", m.InteriorStates)
	}
	if m.Depth < 3 {
		t.Errorf("depth = %d", m.Depth)
	}
	if m.MaxBranching < 2 || m.MeanBranching <= 0 {
		t.Errorf("branching = %+v", m)
	}
	// product has two tag parents in the test lake.
	if m.MultiParentLeaves != 1 {
		t.Errorf("multiparent leaves = %d", m.MultiParentLeaves)
	}
	if m.String() == "" {
		t.Error("empty String")
	}
}

func TestMultiDimExportImport(t *testing.T) {
	l := testLake(t)
	m, _, err := BuildMultiDim(l, MultiDimConfig{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The JSON export carries everything the rebuild needs.
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var ex ExportedMultiDim
	if err := json.Unmarshal(buf.Bytes(), &ex); err != nil {
		t.Fatal(err)
	}
	got, err := ImportMultiDim(l, &ex)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Orgs) != len(m.Orgs) {
		t.Fatalf("dims = %d, want %d", len(got.Orgs), len(m.Orgs))
	}
	if a, b := m.Effectiveness(), got.Effectiveness(); a != b {
		t.Errorf("effectiveness %v != %v", b, a)
	}
	empty := &ExportedMultiDim{}
	if _, err := ImportMultiDim(l, empty); err == nil {
		t.Error("empty multidim accepted")
	}
}

// writeOrgJSON serializes one organization's structure as indented
// JSON, the form MultiDim.WriteJSON exports each dimension in.
func writeOrgJSON(o *Org, w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(o.Export())
}
