package lake

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lakenav/internal/binfmt"
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

// lakeShape is what the binary lake format persists: every table's
// name, tags and attributes, and every attribute's table, name and
// values, plus the lake's tag vocabulary.
type lakeShape struct {
	Tables []Table
	Attrs  []Attribute
	Tags   []string
}

func shapeOf(l *Lake) lakeShape {
	s := lakeShape{Tags: l.Tags()}
	for _, t := range l.Tables {
		s.Tables = append(s.Tables, *t)
	}
	for _, a := range l.Attrs {
		s.Attrs = append(s.Attrs, *a)
	}
	return s
}

// FuzzReadBinLake drives arbitrary bytes through the binary lake
// decoder that every serving restart runs over lake.bin: torn,
// truncated and bit-flipped containers must surface as errors, never
// panics. A lake the decoder accepts must pass Validate, and saving it
// with SaveFileBin and decoding that file again must give back the
// same tables, tags, attributes and values.
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
