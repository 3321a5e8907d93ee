package lakenav

import (
	"math"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"

	"lakenav/internal/embedding"
	"lakenav/internal/synth"
	"lakenav/vector"
)

// countingModel is a Hashed model that counts its lookups. It keeps
// Hashed's identity, so a lake.bin written with the same parameters is
// adopted under it.
type countingModel struct {
	*embedding.Hashed
	lookups atomic.Int64
}

func (m *countingModel) Lookup(w string) (vector.Vector, bool) {
	m.lookups.Add(1)
	return m.Hashed.Lookup(w)
}

// defaultHashed is NewLake's default model.
func defaultHashed() *embedding.Hashed { return embedding.NewHashed(64, 1, 0.95) }

// loadTopics loads path with model and derives (or adopts) its topics.
func loadTopics(t *testing.T, path string, model embedding.Model) *Lake {
	t.Helper()
	l, err := LoadJSON(path, WithModel(model))
	if err != nil {
		t.Fatal(err)
	}
	l.ensureTopics()
	return l
}

// requireSameTopics fails unless every attribute of got carries the
// topic, accumulator and coverage bits of want's.
func requireSameTopics(t *testing.T, got, want *Lake) {
	t.Helper()
	if got.l.Dim() != want.l.Dim() || len(got.l.Attrs) != len(want.l.Attrs) {
		t.Fatalf("dimension %d over %d attributes, want %d over %d", got.l.Dim(), len(got.l.Attrs), want.l.Dim(), len(want.l.Attrs))
	}
	bits := func(v vector.Vector) []uint64 {
		out := make([]uint64, len(v))
		for i, x := range v {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for i, w := range want.l.Attrs {
		g := got.l.Attrs[i]
		if g.EmbCount != w.EmbCount || g.Coverage != w.Coverage ||
			!slices.Equal(bits(g.EmbSum), bits(w.EmbSum)) || !slices.Equal(bits(g.Topic), bits(w.Topic)) {
			t.Fatalf("attribute %d (%s) topics differ", i, w.Name)
		}
	}
}

// A lake.bin whose topics the load's model derived is adopted: the
// model sees no lookup, and the lake builds and reloads organizations
// with the fingerprints, and answers searches, of a recompute.
func TestBinLakeAdoptsStoredTopics(t *testing.T) {
	l, queries := socrataLake(t)
	dir := t.TempDir()
	binPath, jsonPath, orgPath := filepath.Join(dir, "lake.bin"), filepath.Join(dir, "lake.json"), filepath.Join(dir, "org.bin")
	if err := l.Save(binPath, FormatBin); err != nil {
		t.Fatal(err)
	}
	if err := l.Save(jsonPath, FormatJSON); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Dimensions = 2
	cfg.MaxIterations = 20
	built, err := Organize(l, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := built.Save(orgPath, FormatBin); err != nil {
		t.Fatal(err)
	}

	adopting := &countingModel{Hashed: defaultHashed()}
	adopted := loadTopics(t, binPath, adopting)
	recomputed := loadTopics(t, jsonPath, defaultHashed())
	requireSameTopics(t, adopted, recomputed)

	type start struct {
		loaded, organized string
		search            *SearchEngine
	}
	coldStart := func(l *Lake) start {
		org, err := LoadOrganization(l, orgPath)
		if err != nil {
			t.Fatal(err)
		}
		rebuilt, err := Organize(l, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return start{org.Fingerprint(), rebuilt.Fingerprint(), NewSearchEngine(l)}
	}
	got, want := coldStart(adopted), coldStart(recomputed)
	if n := adopting.lookups.Load(); n != 0 {
		t.Errorf("adopting load looked up %d words, want 0", n)
	}
	if got.loaded != want.loaded || got.organized != want.organized {
		t.Errorf("fingerprints loaded %s, organized %s; recompute %s, %s", got.loaded, got.organized, want.loaded, want.organized)
	}
	for _, q := range queries {
		if g, w := got.search.Search(q, 10), want.search.Search(q, 10); !slices.Equal(g, w) {
			t.Fatalf("Search(%q): adopted %v, recomputed %v", q, g, w)
		}
	}
}

// Every load whose file carries no topics of the load's model derives
// them afresh, bit for bit as a JSON load with that model does: a
// lake.bin stamped with another model's identity, a lake.bin written
// from topics of a model without an identity (`lakenav gen -format
// bin` over synth's TopicSpace), which stores none, and a JSON lake.
func TestLoadRecomputesTopicsOfOtherModels(t *testing.T) {
	dir := t.TempDir()
	l, _ := socrataLake(t)
	stamped, jsonPath := filepath.Join(dir, "stamped.bin"), filepath.Join(dir, "lake.json")
	if err := l.Save(stamped, FormatBin); err != nil { // stamped with the default model
		t.Fatal(err)
	}
	if err := l.Save(jsonPath, FormatJSON); err != nil {
		t.Fatal(err)
	}
	soc, err := synth.GenerateSocrata(synth.SmallSocrataConfig())
	if err != nil {
		t.Fatal(err)
	}
	genBin, genJSON := filepath.Join(dir, "gen.bin"), filepath.Join(dir, "gen.json")
	if err := soc.Lake.SaveFileBin(genBin); err != nil {
		t.Fatal(err)
	}
	if err := soc.Lake.SaveFile(genJSON); err != nil {
		t.Fatal(err)
	}

	other := func() *embedding.Hashed { return embedding.NewHashed(32, 2, 0.9) }
	cases := []struct {
		name, path, reference string
		model                 func() *embedding.Hashed
	}{
		{"other identity", stamped, jsonPath, other},
		{"no identity", genBin, genJSON, defaultHashed},
		{"json", jsonPath, jsonPath, defaultHashed},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			counting := &countingModel{Hashed: c.model()}
			got := loadTopics(t, c.path, counting)
			if counting.lookups.Load() == 0 {
				t.Fatal("load adopted stored topics instead of deriving them")
			}
			requireSameTopics(t, got, loadTopics(t, c.reference, c.model()))
		})
	}
}
