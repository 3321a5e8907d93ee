package core

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadOrg drives arbitrary bytes through the organization import
// path. The contract under test: ReadOrg either rejects the input with
// an error or returns an organization that passes Validate — it never
// panics and never accepts structurally broken state. Import validates
// on success, so the interesting failures are crashes in the decode,
// state-materialization, and child-linking passes.
func FuzzReadOrg(f *testing.F) {
	l := testLake(f)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		f.Fatal(err)
	}
	valid, err := json.Marshal(o.Export())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"gamma":1,"root":0,"states":[{"id":0,"kind":"interior","children":[0]}]}`))
	f.Add([]byte(`{"gamma":1,"root":5,"states":[{"id":0,"kind":"tag","tags":["fishery"]}]}`))
	f.Add([]byte(`{"gamma":1,"root":0,"states":[{"id":0,"kind":"leaf","attr":"nope.nope"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		org, err := ReadOrg(l, bytes.NewReader(data))
		if err != nil {
			return
		}
		if verr := org.Validate(); verr != nil {
			t.Fatalf("ReadOrg accepted an organization that fails Validate: %v", verr)
		}
	})
}
