package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lakenav/internal/binfmt"
	"lakenav/internal/faultinject"
	"lakenav/internal/lake"
	"lakenav/internal/synth"
)

// canonical returns the import-normalized form of o: the edge and
// state order Import produces from an export. The binary codec targets
// this form — decode(encode(x)) is bit-identical for canonical x, which
// is exactly what every rebuild path (Import or the binary decoder)
// hands out.
func canonical(t *testing.T, l *lake.Lake, o *Org) *Org {
	t.Helper()
	c, err := Import(l, o.Export())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// DecodeBinOrg decodes one dimension's org container the way
// DecodeBinMultiDim does, over a fresh attrIndex of l.
func DecodeBinOrg(l *lake.Lake, data []byte) (*Org, error) {
	return decodeBinOrg(l, attrIndex(l), data)
}

// TestBinOrgRoundTrip is the golden pin of the PR: a JSON-canonical
// organization survives encode→decode with an identical fingerprint,
// an identical export, and a byte-identical re-encode.
func TestBinOrgRoundTrip(t *testing.T) {
	l := testLake(t)
	built, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	o := canonical(t, l, built)

	data, err := EncodeBinOrg(o)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeBinOrg(l, data)
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := dec.Fingerprint(), o.Fingerprint(); got != want {
		t.Fatalf("decoded fingerprint %016x != source %016x", got, want)
	}
	je, _ := json.Marshal(o.Export())
	jd, _ := json.Marshal(dec.Export())
	if !bytes.Equal(je, jd) {
		t.Fatal("decoded export differs from source export")
	}
	// Deterministic encoder: same org, same bytes.
	again, err := EncodeBinOrg(dec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-encoding the decoded org produced different bytes")
	}
}

// TestBinOrgMatchesJSONPath pins the cross-path contract the
// cold-start gate relies on: the binary codec over a freshly built
// (non-canonical) org yields the fingerprint of the in-memory reference
// rebuild, Import over the org's export.
func TestBinOrgMatchesJSONPath(t *testing.T) {
	l := testLake(t)
	built, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := Import(l, built.Export())
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeBinOrg(built)
	if err != nil {
		t.Fatal(err)
	}
	fromBin, err := DecodeBinOrg(l, data)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.Fingerprint() != ref.Fingerprint() {
		t.Fatalf("binary path fingerprint %016x != Import reference %016x",
			fromBin.Fingerprint(), ref.Fingerprint())
	}
}

// TestBinOrgDegenerateLakes round-trips organizations over minimal
// lakes: a single table with a single attribute, and a tagless lake.
func TestBinOrgDegenerateLakes(t *testing.T) {
	lakes := map[string]*lake.Lake{}

	one := lake.New()
	one.AddTable("solo", []string{"fishery"},
		lake.AttrSpec{Name: "species", Values: []string{"fisha"}})
	one.ComputeTopics(axisModel{})
	lakes["single attr"] = one

	mixed := lake.New()
	mixed.AddTable("plain", nil,
		lake.AttrSpec{Name: "species", Values: []string{"fisha", "fishb"}})
	mixed.AddTable("tagged", []string{"fishery"},
		lake.AttrSpec{Name: "catch", Values: []string{"fishc"}})
	mixed.ComputeTopics(axisModel{})
	lakes["untagged table"] = mixed

	for name, l := range lakes {
		if err := l.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		built, err := NewClustered(l, BuildConfig{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		o := canonical(t, l, built)
		data, err := EncodeBinOrg(o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		dec, err := DecodeBinOrg(l, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if dec.Fingerprint() != o.Fingerprint() {
			t.Fatalf("%s: fingerprint changed across round-trip", name)
		}
	}
}

// TestBinMultiDimRoundTrip saves a multi-dimensional organization
// through the container format and checks the mmap-backed load returns
// an equivalent canonical structure, byte-stable under re-save.
func TestBinMultiDimRoundTrip(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	canon, err := ImportMultiDim(tc.Lake, m.Export())
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "org.bin")
	if err := SaveBinMultiDim(path, canon); err != nil {
		t.Fatal(err)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !binfmt.IsMagic(head) {
		t.Fatal("saved multidim file does not start with the container magic")
	}
	loaded, err := LoadMultiDim(tc.Lake, path)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range loaded.Orgs {
		if err := o.Validate(); err != nil {
			t.Fatalf("dimension %d: %v", i, err)
		}
	}
	if loaded.Fingerprint() != canon.Fingerprint() {
		t.Fatalf("loaded fingerprint %016x != canonical %016x",
			loaded.Fingerprint(), canon.Fingerprint())
	}
	// Byte-stable re-save: decode is lossless for canonical input.
	path2 := filepath.Join(dir, "org2.bin")
	if err := SaveBinMultiDim(path2, loaded); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(path2)
	if !bytes.Equal(b1, b2) {
		t.Fatal("re-saving the loaded multidim produced different bytes")
	}

	// The JSON export is not a load format: LoadMultiDim rejects it.
	jpath := filepath.Join(dir, "org.json")
	jf, err := os.Create(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := canon.WriteJSON(jf); err != nil {
		t.Fatal(err)
	}
	if err := jf.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadMultiDim(tc.Lake, jpath); err == nil {
		t.Fatal("LoadMultiDim loaded a JSON export")
	}
}

// TestBinMultiDimRejectsCorruptFiles tears and corrupts a saved
// multidim file; every damaged variant must be rejected.
func TestBinMultiDimRejectsCorruptFiles(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "org.bin")
	if err := SaveBinMultiDim(path, m); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.1, 0.5, 0.95} {
		torn := filepath.Join(dir, "torn.bin")
		if err := faultinject.TornCopy(path, torn, frac); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadMultiDim(tc.Lake, torn); err == nil {
			t.Fatalf("torn file (%.0f%%) accepted", frac*100)
		}
	}
	for _, off := range []int64{9, 40, info.Size() / 2, info.Size() - 1} {
		bad := filepath.Join(dir, "bad.bin")
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.CorruptByte(bad, off); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadMultiDim(tc.Lake, bad); err == nil {
			t.Fatalf("corrupt byte at %d accepted", off)
		}
	}
}

// serialDimensions decodes a multidim container's dimensions one after
// another, each over its own attrIndex, stopping at the first failure:
// the loop DecodeBinMultiDim ran before it decoded them in parallel
// over one shared index.
func serialDimensions(l *lake.Lake, c *binfmt.Container) ([]*Org, error) {
	meta, err := c.Uint64s(secMDMeta)
	if err != nil {
		return nil, err
	}
	var orgs []*Org
	for i := uint64(0); i < meta[0]; i++ {
		blob, err := c.Section(uint32(secMDOrgBase + i))
		if err != nil {
			return nil, fmt.Errorf("core: binorg decode dimension %d: %w", i, err)
		}
		o, err := DecodeBinOrg(l, blob)
		if err != nil {
			return nil, fmt.Errorf("core: binorg decode dimension %d: %w", i, err)
		}
		orgs = append(orgs, o)
	}
	return orgs, nil
}

// multiDimContainer encodes m and opens the result as a container.
func multiDimContainer(t *testing.T, m *MultiDim) *binfmt.Container {
	t.Helper()
	w, err := EncodeBinMultiDim(m)
	if err != nil {
		t.Fatal(err)
	}
	data, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	c, err := binfmt.New(data)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestBinMultiDimParallelMatchesSerial decodes a 10-dimension container
// in parallel and checks every dimension's fingerprint against the
// serial decode, over one lake.
func TestBinMultiDimParallelMatchesSerial(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	built, _, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ImportMultiDim(tc.Lake, built.Export())
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Orgs) != 10 {
		t.Fatalf("built %d dimensions, want 10", len(m.Orgs))
	}
	c := multiDimContainer(t, m)
	got, err := DecodeBinMultiDim(tc.Lake, c)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialDimensions(tc.Lake, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Orgs) != len(want) {
		t.Fatalf("parallel decode has %d dimensions, serial %d", len(got.Orgs), len(want))
	}
	for i := range want {
		if g, w := got.Orgs[i].Fingerprint(), want[i].Fingerprint(); g != w {
			t.Errorf("dimension %d: parallel fingerprint %016x, serial %016x", i, g, w)
		}
	}
	if g, w := got.Fingerprint(), m.Fingerprint(); g != w {
		t.Errorf("decoded multidim fingerprint %016x, encoded %016x", g, w)
	}
}

// TestBinMultiDimReportsLowestFailingDimension corrupts two dimensions
// differently; the parallel decode must fail with the serial decode's
// error, which names the lower one.
func TestBinMultiDimReportsLowestFailingDimension(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 5, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Dimension 1 puts a leaf under its root (a kind-rule violation);
	// dimension 3 carries a non-positive gamma.
	lower := m.Orgs[1]
	for _, s := range lower.States {
		if s.Kind == KindLeaf && !s.deleted {
			lower.linkChild(lower.Root, s.ID)
			break
		}
	}
	m.Orgs[3].Gamma = -1
	c := multiDimContainer(t, m)
	_, want := serialDimensions(tc.Lake, c)
	if want == nil || !strings.Contains(want.Error(), "dimension 1:") {
		t.Fatalf("serial decode error %v, want one naming dimension 1", want)
	}
	_, got := DecodeBinMultiDim(tc.Lake, c)
	if got == nil || got.Error() != want.Error() {
		t.Fatalf("parallel decode error\n  %v\nwant the serial decode's\n  %v", got, want)
	}
}

// TestBinCheckpointRoundTrip saves a checkpoint and checks the loaded
// copy is field-identical to the original (compared through
// encoding/json, which skips the unexported load path).
func TestBinCheckpointRoundTrip(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ck := &Checkpoint{
		Version:  checkpointVersion,
		Dim:      2,
		TagGroup: []string{"fishery", "grain"},
		Config: SearchConfig{
			RepFraction: 0.5, MaxIterations: 100, Window: 50,
			MinRelImprovement: 0.001, LeafProposals: 4,
			AcceptExponent: 2, Seed: 9, CheckpointEvery: 7,
		},
		Iterations: 42, Accepted: 17, Rejected: 25,
		SinceImprove: 3, PlateauRef: 0.7,
		InitialEff: 0.25, BestEff: 0.75,
		RNGState: 12345,
		Current:  o.Export(),
		Best:     o.Export(),
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ck")
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !binfmt.IsMagic(head) {
		t.Fatal("binary checkpoint file does not start with the container magic")
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(ck)
	got, _ := json.Marshal(loaded)
	if !bytes.Equal(want, got) {
		t.Fatalf("binary checkpoint round-trip drifted:\n want %s\n got  %s", want, got)
	}

	// Corruption anywhere in the file must be rejected.
	for _, off := range []int64{12, 48, int64(len(head)) / 2} {
		bad := filepath.Join(dir, "bad.ck")
		if err := os.WriteFile(bad, head, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.CorruptByte(bad, off); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(bad); err == nil {
			t.Fatalf("corrupt byte at %d accepted", off)
		}
	}
}

// TestBinCheckpointOptimizerWritesBinary runs a real checkpointing
// search and checks the files it leaves behind are binfmt containers
// that parse and validate.
func TestBinCheckpointOptimizerWritesBinary(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bin.ck")
	_, o := checkpointLakeOrg(t)
	cfg := ckOptConfig(path)
	_, stats, err := OptimizeContext(context.Background(), o, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Checkpoints == 0 {
		t.Fatal("search never checkpointed; nothing tested")
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !binfmt.IsMagic(head) {
		t.Fatal("optimizer wrote a checkpoint without the container magic")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := ck.validate(); err != nil {
		t.Fatal(err)
	}
}
