package core

import (
	"slices"
	"testing"

	"lakenav/internal/binfmt"
)

// FuzzReadOrg drives arbitrary bytes through the structural org
// container decoder and Import — the path a checkpoint's embedded
// organizations take on resume. The contract under test: the input is
// either rejected with an error or rebuilds into an organization that
// passes Validate — never a panic, never structurally broken state.
// Import validates on success, so the interesting failures are crashes
// in the decode, state-materialization, and child-linking passes.
func FuzzReadOrg(f *testing.F) {
	l := testLake(f)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(structuralSeed(f, o.Export(), nil))
	// The encoder refuses a snapshot without its root among the states,
	// so the empty and mis-rooted seeds are patched after encoding.
	f.Add(structuralSeed(f, &ExportedOrg{States: []ExportedState{{Kind: "interior"}}},
		func(meta []uint64, _ []uint32) []uint32 {
			meta[orgMetaStates] = 0
			return nil
		}))
	f.Add(structuralSeed(f, &ExportedOrg{Gamma: 1, States: []ExportedState{
		{ID: 0, Kind: "interior", Children: []int{0}}}}, nil))
	f.Add(structuralSeed(f, &ExportedOrg{Gamma: 1, States: []ExportedState{
		{ID: 0, Kind: "tag", Tags: []string{"fishery"}}}},
		func(meta []uint64, recs []uint32) []uint32 {
			meta[orgMetaRoot] = 5
			return recs
		}))
	f.Add(structuralSeed(f, &ExportedOrg{Gamma: 1, States: []ExportedState{
		{ID: 0, Kind: "leaf", Attr: "nope.nope"}}}, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := decodeBinExportedOrg(data)
		if err != nil {
			return
		}
		org, err := Import(l, ex)
		if err != nil {
			return
		}
		if verr := org.Validate(); verr != nil {
			t.Fatalf("Import accepted an organization that fails Validate: %v", verr)
		}
	})
}

// structuralSeed encodes ex as a structural org container. A non-nil
// patch then rewrites the meta words and state records and the
// container is re-serialized around them.
func structuralSeed(f *testing.F, ex *ExportedOrg, patch func(meta []uint64, recs []uint32) []uint32) []byte {
	f.Helper()
	w, err := encodeBinExportedOrg(ex)
	if err != nil {
		f.Fatal(err)
	}
	data, err := w.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	if patch == nil {
		return data
	}
	c, err := binfmt.New(data)
	if err != nil {
		f.Fatal(err)
	}
	meta, err := c.Uint64s(secOrgMeta)
	if err != nil {
		f.Fatal(err)
	}
	recs, err := c.Uint32s(secOrgStates)
	if err != nil {
		f.Fatal(err)
	}
	meta = slices.Clone(meta)
	recs = patch(meta, slices.Clone(recs))
	out := binfmt.NewWriter(binfmt.KindOrg, orgFormatVersion)
	out.AddUint64s(secOrgMeta, meta)
	out.AddUint32s(secOrgStates, recs)
	for _, id := range []uint32{secOrgStrOffs, secOrgStrBytes, secOrgChildren} {
		sec, err := c.Section(id)
		if err != nil {
			f.Fatal(err)
		}
		out.Add(id, sec)
	}
	patched, err := out.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	return patched
}
