package core

import (
	"bytes"
	"testing"
)

// binOrgSeedCorpus returns a valid full-flavor org container plus a
// few systematically damaged variants, so the fuzzer starts from deep
// coverage instead of rediscovering the header.
func binOrgSeedCorpus(f *testing.F) [][]byte {
	l := testLake(f)
	built, err := NewClustered(l, BuildConfig{})
	if err != nil {
		f.Fatal(err)
	}
	o, err := Import(l, built.Export())
	if err != nil {
		f.Fatal(err)
	}
	valid, err := EncodeBinOrg(o)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{valid, nil}
	for _, off := range []int{0, 8, 16, 24, 40, len(valid) / 2, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		seeds = append(seeds, mut)
	}
	for _, k := range []int{1, 8, 31, 32, 56, len(valid) - 8} {
		seeds = append(seeds, bytes.Clone(valid[:k]))
	}
	return seeds
}

// FuzzReadBinOrg drives arbitrary bytes through the binary org decoder
// over a real lake. The contract matches FuzzReadOrg: reject with an
// error or return an organization that passes Validate — never panic,
// and never allocate beyond what the input's section sizes justify.
func FuzzReadBinOrg(f *testing.F) {
	for _, s := range binOrgSeedCorpus(f) {
		f.Add(s)
	}
	l := testLake(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		org, err := DecodeBinOrg(l, data)
		if err != nil {
			return
		}
		if verr := org.Validate(); verr != nil {
			t.Fatalf("DecodeBinOrg accepted an organization that fails Validate: %v", verr)
		}
	})
}

// FuzzReadBinCheckpoint drives arbitrary bytes through the binary
// checkpoint decoder: truncations, flipped CRC bytes, and bad section
// offsets must all surface as errors, and anything accepted must pass
// the same validate() gate the resume path trusts.
func FuzzReadBinCheckpoint(f *testing.F) {
	l := testLake(f)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		f.Fatal(err)
	}
	ck := &Checkpoint{
		Version:    checkpointVersion,
		Config:     SearchConfig{MaxIterations: 10, Window: 5, Seed: 1},
		Iterations: 4, Accepted: 3, Rejected: 1,
		TagGroup: []string{"fishery"},
		Current:  o.Export(),
		Best:     o.Export(),
	}
	w, err := encodeBinCheckpoint(ck)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := w.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(nil))
	for _, off := range []int{0, 8, 16, 24, 40, len(valid) / 2, len(valid) - 1} {
		mut := bytes.Clone(valid)
		mut[off] ^= 0xff
		f.Add(mut)
	}
	for _, k := range []int{1, 31, 32, 64, len(valid) - 8} {
		f.Add(bytes.Clone(valid[:k]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := DecodeBinCheckpoint(data)
		if err != nil {
			return
		}
		if verr := ck.validate(); verr != nil {
			t.Fatalf("DecodeBinCheckpoint accepted a checkpoint that fails validate: %v", verr)
		}
	})
}
