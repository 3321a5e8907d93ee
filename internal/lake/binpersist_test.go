package lake

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lakenav/internal/binfmt"
	"lakenav/internal/embedding"
	"lakenav/internal/faultinject"
)

// TestBinFileRoundTrip saves a lake in the container format and checks
// LoadFile sniffs and decodes it back to the same shape the JSON path
// produces.
func TestBinFileRoundTrip(t *testing.T) {
	l := buildTestLake(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "lake.bin")
	if err := l.SaveFileBin(bin); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(got.Tables) != len(l.Tables) || len(got.Attrs) != len(l.Attrs) {
		t.Fatalf("shape mismatch: %d/%d tables, %d/%d attrs",
			len(got.Tables), len(l.Tables), len(got.Attrs), len(l.Attrs))
	}
	for i, want := range l.Tables {
		have := got.Tables[i]
		if have.Name != want.Name || len(have.Tags) != len(want.Tags) || len(have.Attrs) != len(want.Attrs) {
			t.Errorf("table %d mismatch: %+v vs %+v", i, have, want)
		}
	}
	for i, want := range l.Attrs {
		have := got.Attrs[i]
		if have.Name != want.Name || len(have.Values) != len(want.Values) || have.Text != want.Text {
			t.Errorf("attr %d mismatch", i)
		}
		for j, v := range want.Values {
			if have.Values[j] != v {
				t.Errorf("attr %d value %d: %q != %q", i, j, have.Values[j], v)
			}
		}
	}
}

// TestBinFileRejectsCorruption tears and flips bytes of a binary lake
// file; LoadFile must reject every variant with an error.
func TestBinFileRejectsCorruption(t *testing.T) {
	l := buildTestLake(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "lake.bin")
	if err := l.SaveFileBin(bin); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.2, 0.9} {
		torn := filepath.Join(dir, "torn.bin")
		if err := faultinject.TornCopy(bin, torn, frac); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(torn); err == nil {
			t.Fatalf("torn lake file (%.0f%%) accepted", frac*100)
		}
	}
	for _, off := range []int64{10, 40, int64(len(data)) / 2} {
		bad := filepath.Join(dir, "bad.bin")
		if err := os.WriteFile(bad, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := faultinject.CorruptByte(bad, off); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFile(bad); err == nil {
			t.Fatalf("corrupt byte at %d accepted", off)
		}
	}
}

// TestBinFileStoresTopics saves a lake whose topics an identified model
// derived and checks the decoded lake carries the same accumulators,
// coverage and topic bits, claims them only for that model, and that a
// lake without such topics writes none.
func TestBinFileStoresTopics(t *testing.T) {
	dir := t.TempDir()
	model := embedding.NewHashed(16, 1, 0.7)
	l := buildTestLake(t)
	l.ComputeTopics(model)
	bin := filepath.Join(dir, "lake.bin")
	if err := l.SaveFileBin(bin); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(bin)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim() != l.Dim() {
		t.Fatalf("decoded dimension %d, want %d", got.Dim(), l.Dim())
	}
	zeroCount := false
	for i, want := range l.Attrs {
		have := got.Attrs[i]
		if have.EmbCount != want.EmbCount || have.Coverage != want.Coverage ||
			!sameBits(have.EmbSum, want.EmbSum) || !sameBits(have.Topic, want.Topic) {
			t.Errorf("attr %d topics differ after decode:\n%+v\nvs\n%+v", i, *have, *want)
		}
		zeroCount = zeroCount || want.EmbCount == 0
	}
	if !zeroCount {
		t.Error("no attribute without an embedded token; the zero-count path is untested")
	}
	if !got.HasTopicsFrom(model) {
		t.Error("decoded topics not claimed for the model that derived them")
	}
	for _, other := range []embedding.Model{embedding.NewHashed(16, 2, 0.7), embedding.NewHashed(8, 1, 0.7), embedding.NewStore(16)} {
		if got.HasTopicsFrom(other) {
			t.Errorf("decoded topics claimed for another model %T %q", other, embedding.Identity(other))
		}
	}

	// Topics from a model without an identity, or stale after AddTable,
	// are not stored.
	store := embedding.NewStore(16)
	l.ComputeTopics(store)
	stale := buildTestLake(t)
	stale.ComputeTopics(model)
	stale.AddTable("late", nil, AttrSpec{Name: "a", Values: []string{"x"}})
	for name, saved := range map[string]*Lake{"unidentified": l, "stale": stale} {
		if err := saved.SaveFileBin(bin); err != nil {
			t.Fatal(err)
		}
		got, err := LoadFile(bin)
		if err != nil {
			t.Fatal(err)
		}
		if got.Dim() != 0 || got.HasTopicsFrom(model) || got.HasTopicsFrom(store) {
			t.Errorf("%s: lake.bin carries topics (dim %d)", name, got.Dim())
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// lakeShape is what the binary lake format persists: every table's
// name, tags and attributes, every attribute's table, name and values
// and any stored topics, plus the lake's tag vocabulary.
type lakeShape struct {
	Tables []Table
	Attrs  []Attribute
	Tags   []string
	Dim    int
	Model  string
}

func shapeOf(l *Lake) lakeShape {
	s := lakeShape{Tags: l.Tags(), Dim: l.dim, Model: l.topicModel}
	for _, t := range l.Tables {
		s.Tables = append(s.Tables, *t)
	}
	for _, a := range l.Attrs {
		s.Attrs = append(s.Attrs, *a)
	}
	return s
}

// repack rebuilds the lake container data with its sections 1-11
// replaced by those in with (a nil payload drops the section), so a
// seed can carry a well-formed container whose derived topics disagree
// with its lake.
func repack(t testing.TB, data []byte, with map[uint32][]byte) []byte {
	t.Helper()
	c, err := binfmt.New(data)
	if err != nil {
		t.Fatal(err)
	}
	w := binfmt.NewWriter(binfmt.KindLake, lakeFormatVersion)
	for id := uint32(1); id <= secLakeEmbSums; id++ {
		p, ok := with[id]
		if !ok {
			if !c.Has(id) {
				continue
			}
			if p, err = c.Section(id); err != nil {
				t.Fatal(err)
			}
		}
		if p != nil {
			w.Add(id, p)
		}
	}
	out, err := w.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// topicSeeds returns l saved with topics derived by an identified
// model, and well-formed containers of it whose topic sections disagree
// with the lake or with themselves, by what is wrong.
func topicSeeds(t testing.TB, l *Lake) ([]byte, map[string][]byte) {
	t.Helper()
	l.ComputeTopics(embedding.NewHashed(8, 1, 0.7))
	path := filepath.Join(t.TempDir(), "topics.bin")
	if err := l.SaveFileBin(path); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := binfmt.New(valid)
	if err != nil {
		t.Fatal(err)
	}
	sums, err := c.Section(secLakeEmbSums)
	if err != nil {
		t.Fatal(err)
	}
	cov, err := c.Section(secLakeCoverage)
	if err != nil {
		t.Fatal(err)
	}
	// Attribute 0 ("species") has embedded tokens; attribute 1 ("count",
	// all digits) has none.
	if l.Attrs[0].EmbCount == 0 || l.Attrs[1].EmbCount != 0 {
		t.Fatalf("test lake embeds %d and %d tokens of attributes 0 and 1", l.Attrs[0].EmbCount, l.Attrs[1].EmbCount)
	}
	word := func(b []byte, i int, v uint64) []byte {
		b = bytes.Clone(b)
		binary.LittleEndian.PutUint64(b[8*i:], v)
		return b
	}
	dim := uint64(l.Dim())
	covWord := func(attr, field int) int { return attr*lakeCoverageRecWords + field }
	return valid, map[string][]byte{
		"truncated sums":         repack(t, valid, map[uint32][]byte{secLakeEmbSums: sums[:len(sums)-8]}),
		"missing sums":           repack(t, valid, map[uint32][]byte{secLakeEmbSums: nil}),
		"wrong dimension":        repack(t, valid, map[uint32][]byte{secLakeTopicMeta: binary.LittleEndian.AppendUint64(nil, dim+1)}),
		"zero dimension":         repack(t, valid, map[uint32][]byte{secLakeTopicMeta: binary.LittleEndian.AppendUint64(nil, 0)}),
		"extra coverage record":  repack(t, valid, map[uint32][]byte{secLakeCoverage: append(bytes.Clone(cov), cov[:lakeCoverageRecWords*8]...)}),
		"no identity":            repack(t, valid, map[uint32][]byte{secLakeTopicModel: {}}),
		"value count":            repack(t, valid, map[uint32][]byte{secLakeCoverage: word(cov, covWord(0, 0), uint64(len(l.Attrs[0].Values)+1))}),
		"embedded beyond tokens": repack(t, valid, map[uint32][]byte{secLakeCoverage: word(cov, covWord(0, 3), uint64(l.Attrs[0].Coverage.Tokens+1))}),
		"non-finite sum":         repack(t, valid, map[uint32][]byte{secLakeEmbSums: word(sums, 0, math.Float64bits(math.Inf(1)))}),
		"sum over no vectors":    repack(t, valid, map[uint32][]byte{secLakeEmbSums: word(sums, int(dim), math.Float64bits(0.5))}),
	}
}

// TestBinFileRejectsDisagreeingTopics: a topic section that does not
// fit its lake fails the decode instead of being served.
func TestBinFileRejectsDisagreeingTopics(t *testing.T) {
	valid, bad := topicSeeds(t, buildTestLake(t))
	decode := func(data []byte) error {
		c, err := binfmt.New(data)
		if err != nil {
			return err
		}
		_, err = decodeBinLake(c)
		return err
	}
	if err := decode(valid); err != nil {
		t.Fatalf("valid lake with topics rejected: %v", err)
	}
	for name, data := range bad {
		if err := decode(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// FuzzReadBinLake drives arbitrary bytes through the binary lake
// decoder that every serving restart runs over lake.bin: torn,
// truncated and bit-flipped containers must surface as errors, never
// panics. A lake the decoder accepts must pass Validate; if it carries
// topics, each attribute's coverage must count its values, EmbCount
// its embedded tokens, and its EmbSum must be finite, and zero when
// nothing was embedded. Saving it with SaveFileBin and decoding that
// file again must give back the same tables, tags, attributes, values
// and topics.
func FuzzReadBinLake(f *testing.F) {
	dir := f.TempDir()
	l := buildTestLake(f)
	l.AddTable("empty", nil)
	l.AddTable("dup", []string{"city", "city", ""},
		AttrSpec{Name: "none"},
		AttrSpec{Name: "district", Values: []string{"city north", "city north"}},
	)
	path := filepath.Join(dir, "seed.bin")
	if err := l.SaveFileBin(path); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
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
	// The same lake with stored topics, then with topics that disagree
	// with it.
	topics, bad := topicSeeds(f, l)
	f.Add(topics)
	for _, name := range []string{"truncated sums", "wrong dimension", "extra coverage record"} {
		f.Add(bad[name])
	}
	decode := func(data []byte) (*Lake, error) {
		c, err := binfmt.New(data)
		if err != nil {
			return nil, err
		}
		return decodeBinLake(c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := decode(data)
		if err != nil {
			return
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("decodeBinLake accepted a lake that fails Validate: %v", verr)
		}
		for i, a := range got.Attrs {
			if got.Dim() == 0 {
				if a.EmbSum != nil || a.Topic != nil {
					t.Fatalf("attr %d has topics in a lake without a dimension", i)
				}
				continue
			}
			if a.Coverage.Values != len(a.Values) || a.EmbCount != a.Coverage.EmbeddedTokens ||
				len(a.EmbSum) != got.Dim() || len(a.Topic) != got.Dim() {
				t.Fatalf("attr %d: %d values, coverage %+v, EmbCount %d, %d-dim sum in a %d-dim lake",
					i, len(a.Values), a.Coverage, a.EmbCount, len(a.EmbSum), got.Dim())
			}
			for _, x := range a.EmbSum {
				if math.IsNaN(x) || math.IsInf(x, 0) || (a.EmbCount == 0 && x != 0) {
					t.Fatalf("attr %d: sum component %v over %d vectors", i, x, a.EmbCount)
				}
			}
		}
		path := filepath.Join(t.TempDir(), "again.bin")
		if err := got.SaveFileBin(path); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		back, err := decode(again)
		if err != nil {
			t.Fatalf("re-encoded lake does not decode: %v", err)
		}
		if !reflect.DeepEqual(shapeOf(back), shapeOf(got)) {
			t.Fatalf("re-encoded lake decodes differently:\n%+v\nvs\n%+v", shapeOf(back), shapeOf(got))
		}
	})
}
