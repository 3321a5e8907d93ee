package embedding

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"lakenav/vector"
)

func TestHashedDeterministic(t *testing.T) {
	m := NewHashed(32, 7, 1.0)
	a1, ok1 := m.Lookup("fisheries")
	a2, ok2 := m.Lookup("fisheries")
	if !ok1 || !ok2 {
		t.Fatal("full-coverage model missed a word")
	}
	if !vector.Equal(a1, a2, 0) {
		t.Error("Hashed.Lookup is not deterministic")
	}
}

func TestHashedUnitNorm(t *testing.T) {
	m := NewHashed(32, 7, 1.0)
	v, _ := m.Lookup("economy")
	if n := vector.Norm(v); n < 0.999 || n > 1.001 {
		t.Errorf("norm = %v, want 1", n)
	}
}

func TestHashedDistinctWordsDiffer(t *testing.T) {
	m := NewHashed(64, 7, 1.0)
	a, _ := m.Lookup("grain")
	b, _ := m.Lookup("immigration")
	if c := vector.Cosine(a, b); c > 0.6 {
		t.Errorf("unrelated words too similar: cos=%v", c)
	}
}

func TestHashedCoverage(t *testing.T) {
	m := NewHashed(16, 7, 0.7)
	words := 0
	hits := 0
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 2000; i++ {
		w := randWord(rng)
		words++
		if _, ok := m.Lookup(w); ok {
			hits++
		}
	}
	frac := float64(hits) / float64(words)
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("coverage fraction = %v, want ~0.7", frac)
	}
	// Coverage decision must be deterministic per word.
	_, first := m.Lookup("zebra")
	_, second := m.Lookup("zebra")
	if first != second {
		t.Error("coverage decision not deterministic")
	}
}

func TestHashedSeedChangesVectors(t *testing.T) {
	a, _ := NewHashed(32, 1, 1).Lookup("city")
	b, _ := NewHashed(32, 2, 1).Lookup("city")
	if vector.Equal(a, b, 1e-12) {
		t.Error("different seeds produced identical embeddings")
	}
}

func TestHashedPanicsOnBadConfig(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero dim":      func() { NewHashed(0, 1, 1) },
		"zero coverage": func() { NewHashed(8, 1, 0) },
		"coverage > 1":  func() { NewHashed(8, 1, 1.5) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		})
	}
}

// Lookup reuses pooled generators; reseeding one must draw exactly what
// a fresh source seeded with the word's seed draws, whichever goroutine
// held the generator before.
func TestHashedLookupMatchesFreshSource(t *testing.T) {
	const (
		goroutines = 4
		perG       = 1500
		dim        = 64
		seed       = 7
	)
	m := NewHashed(dim, seed, 1)
	rng := rand.New(rand.NewSource(17))
	words := make([]string, goroutines*perG)
	for i := range words {
		words[i] = randWord(rng)
	}
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(part []string) {
			defer wg.Done()
			for _, w := range part {
				got, ok := m.Lookup(w)
				want := gaussianUnit(rand.New(rand.NewSource(wordSeed(w, seed))), dim)
				if !ok || !vector.Equal(got, want, 0) {
					errs <- w
					return
				}
			}
		}(words[g*perG : (g+1)*perG])
	}
	wg.Wait()
	close(errs)
	for w := range errs {
		t.Errorf("Lookup(%q) differs from a fresh source's vector", w)
	}
}

// BenchmarkHashedLookup measures one embedding lookup at the default
// model's width.
func BenchmarkHashedLookup(b *testing.B) {
	m := NewHashed(64, 7, 1)
	rng := rand.New(rand.NewSource(5))
	words := make([]string, 1024)
	for i := range words {
		words[i] = randWord(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lookup(words[i%len(words)])
	}
}

// referenceLookup is Hashed.Lookup as it was written on hash/fnv,
// a fresh rand.Source and vector.Normalize's copy.
func referenceLookup(h *Hashed, word string) (vector.Vector, bool) {
	f := fnv.New64a()
	_, _ = f.Write([]byte(word))
	s := int64(f.Sum64()) ^ h.seed
	if h.coverage < 1 {
		u := fnv.New64()
		_, _ = u.Write([]byte(word))
		_, _ = u.Write([]byte{0xC0})
		if float64(u.Sum64()%1_000_000)/1_000_000 >= h.coverage {
			return nil, false
		}
	}
	rng := rand.New(rand.NewSource(s))
	v := vector.New(h.dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return vector.Normalize(v), true
}

// TestHashedLookupMatchesReference checks Lookup's inlined hashes and
// in-place normalization against referenceLookup bit for bit: coverage
// decision and every component, over thousands of words including the
// empty word and multi-byte ones.
func TestHashedLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	words := []string{"", "a", "été", "straße", "数据湖", "fisheries"}
	for len(words) < 4000 {
		words = append(words, randWord(rng))
	}
	for _, m := range []*Hashed{NewHashed(32, 7, 1), NewHashed(24, -3, 0.7)} {
		hits := 0
		for _, w := range words {
			got, ok := m.Lookup(w)
			want, wantOK := referenceLookup(m, w)
			if ok != wantOK {
				t.Fatalf("coverage %v: Lookup(%q) ok %v, reference %v", m.coverage, w, ok, wantOK)
			}
			if !ok {
				continue
			}
			hits++
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("coverage %v: Lookup(%q)[%d] = %v, reference %v", m.coverage, w, i, got[i], want[i])
				}
			}
		}
		if hits == 0 || (m.coverage < 1 && hits == len(words)) {
			t.Fatalf("coverage %v: %d of %d words hit; want both outcomes under partial coverage", m.coverage, hits, len(words))
		}
	}
}

// TestHashedLookupAllocs pins Lookup at one allocation, the returned
// vector, and a miss at none.
func TestHashedLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	m := NewHashed(32, 7, 0.5)
	var hit, miss string
	for i := 0; hit == "" || miss == ""; i++ {
		w := fmt.Sprintf("w%d", i)
		if _, ok := m.Lookup(w); ok {
			hit = w
		} else {
			miss = w
		}
	}
	if n := testing.AllocsPerRun(100, func() { m.Lookup(hit) }); n != 1 {
		t.Errorf("Lookup of a covered word allocates %.1f times, want 1", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Lookup(miss) }); n != 0 {
		t.Errorf("Lookup of an uncovered word allocates %.1f times, want 0", n)
	}
}

func randWord(rng *rand.Rand) string {
	n := 3 + rng.Intn(8)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

func TestStoreAddLookup(t *testing.T) {
	s := NewStore(2)
	s.Add("a", vector.Vector{1, 0})
	s.Add("b", vector.Vector{0, 1})
	if len(s.words) != 2 {
		t.Fatalf("Len = %d, want 2", len(s.words))
	}
	v, ok := s.Lookup("a")
	if !ok || !vector.Equal(v, vector.Vector{1, 0}, 0) {
		t.Errorf("Lookup(a) = %v, %v", v, ok)
	}
	if _, ok := s.Lookup("missing"); ok {
		t.Error("Lookup(missing) reported present")
	}
	// Replacement keeps length.
	s.Add("a", vector.Vector{0.5, 0.5})
	if len(s.words) != 2 {
		t.Errorf("Len after replace = %d, want 2", len(s.words))
	}
	v, _ = s.Lookup("a")
	if !vector.Equal(v, vector.Vector{0.5, 0.5}, 0) {
		t.Errorf("replaced Lookup(a) = %v", v)
	}
}

func TestStoreAddClones(t *testing.T) {
	s := NewStore(1)
	src := vector.Vector{1}
	s.Add("w", src)
	src[0] = 42
	v, _ := s.Lookup("w")
	if v[0] != 1 {
		t.Error("Store.Add did not clone input")
	}
}

func TestStoreNearest(t *testing.T) {
	s := NewStore(2)
	s.Add("east", vector.Vector{1, 0})
	s.Add("northeast", vector.Vector{1, 1})
	s.Add("north", vector.Vector{0, 1})
	s.Add("west", vector.Vector{-1, 0})

	nn := s.Nearest(vector.Vector{1, 0.1}, 2, nil)
	if len(nn) != 2 {
		t.Fatalf("got %d neighbours, want 2", len(nn))
	}
	if nn[0].Word != "east" || nn[1].Word != "northeast" {
		t.Errorf("neighbours = %v", nn)
	}
	if nn[0].Similarity < nn[1].Similarity {
		t.Error("neighbours not sorted by similarity")
	}

	// exclude filters.
	nn = s.Nearest(vector.Vector{1, 0.1}, 2, map[string]bool{"east": true})
	if nn[0].Word != "northeast" {
		t.Errorf("excluded query returned %v", nn)
	}

	if got := s.Nearest(vector.Vector{1, 0}, 0, nil); got != nil {
		t.Errorf("k=0 returned %v", got)
	}
}

func TestStoreNearestWord(t *testing.T) {
	s := NewStore(2)
	s.Add("a", vector.Vector{1, 0})
	s.Add("b", vector.Vector{1, 0.01})
	nn := s.NearestWord("a", 5, true)
	if len(nn) != 1 || nn[0].Word != "b" {
		t.Errorf("NearestWord = %v", nn)
	}
	if s.NearestWord("missing", 3, false) != nil {
		t.Error("NearestWord on missing word returned neighbours")
	}
}

func TestTopicSpaceGroundTruth(t *testing.T) {
	cfg := TopicSpaceConfig{Dim: 32, Topics: 20, WordsPerTopic: 30, Sigma: 0.25, MaxCentroidCosine: 0.5, Seed: 3}
	ts, err := NewTopicSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(ts.Topics()); got != 20 {
		t.Fatalf("topics = %d, want 20", got)
	}
	// Every topic word should be closer to its own centroid than to any
	// other centroid.
	for ti, topic := range ts.Topics() {
		cv, _ := ts.Lookup(topic)
		for w := 0; w < 5; w++ {
			word := TopicWordName(ti, w)
			wv, ok := ts.Lookup(word)
			if !ok {
				t.Fatalf("missing topic word %s", word)
			}
			own := vector.Cosine(wv, cv)
			for tj, other := range ts.Topics() {
				if tj == ti {
					continue
				}
				ov, _ := ts.Lookup(other)
				if vector.Cosine(wv, ov) >= own {
					t.Fatalf("word %s closer to %s than its own topic %s", word, other, topic)
				}
			}
		}
	}
}

func TestTopicSpaceCentroidSeparation(t *testing.T) {
	cfg := TopicSpaceConfig{Dim: 32, Topics: 15, WordsPerTopic: 5, Sigma: 0.2, MaxCentroidCosine: 0.4, Seed: 5}
	ts, err := NewTopicSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tops := ts.Topics()
	for i := range tops {
		vi, _ := ts.Lookup(tops[i])
		for j := i + 1; j < len(tops); j++ {
			vj, _ := ts.Lookup(tops[j])
			if c := vector.Cosine(vi, vj); c > 0.4 {
				t.Errorf("centroids %s,%s too close: cos=%v", tops[i], tops[j], c)
			}
		}
	}
}

func TestTopicSpaceTopicWords(t *testing.T) {
	cfg := TopicSpaceConfig{Dim: 32, Topics: 5, WordsPerTopic: 50, Sigma: 0.2, MaxCentroidCosine: 0.4, Seed: 7}
	ts, err := NewTopicSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	topic := ts.Topics()[0]
	nn := ts.Store().NearestWord(topic, 10, true)
	if len(nn) != 10 {
		t.Fatalf("NearestWord returned %d, want 10", len(nn))
	}
	// The nearest words to a centroid should overwhelmingly be its own
	// topic's vocabulary.
	own := 0
	for _, n := range nn {
		if strings.HasPrefix(n.Word, topic+"_w") {
			own++
		}
	}
	if own < 9 {
		t.Errorf("only %d/10 nearest words belong to the topic", own)
	}
}

func TestTopicSpaceRejectsImpossibleConfig(t *testing.T) {
	// 50 centroids pairwise below cosine 0.05 in 2 dims is impossible.
	cfg := TopicSpaceConfig{Dim: 2, Topics: 50, WordsPerTopic: 1, Sigma: 0.1, MaxCentroidCosine: 0.05, Seed: 1}
	if _, err := NewTopicSpace(cfg); err == nil {
		t.Error("expected error for unsatisfiable separation")
	}
}

func TestTopicSpaceInvalidConfig(t *testing.T) {
	bad := []TopicSpaceConfig{
		{Dim: 0, Topics: 1, WordsPerTopic: 1, Sigma: 0.1},
		{Dim: 4, Topics: 0, WordsPerTopic: 1, Sigma: 0.1},
		{Dim: 4, Topics: 1, WordsPerTopic: 0, Sigma: 0.1},
		{Dim: 4, Topics: 1, WordsPerTopic: 1, Sigma: 0},
	}
	for i, cfg := range bad {
		if _, err := NewTopicSpace(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestTopicSpaceDeterministic(t *testing.T) {
	cfg := TopicSpaceConfig{Dim: 16, Topics: 4, WordsPerTopic: 6, Sigma: 0.2, MaxCentroidCosine: 0.6, Seed: 42}
	a, err := NewTopicSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewTopicSpace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range a.Store().words {
		va, _ := a.Lookup(w)
		vb, ok := b.Lookup(w)
		if !ok || !vector.Equal(va, vb, 0) {
			t.Fatalf("word %s differs between identically-seeded spaces", w)
		}
	}
}

// Property: Nearest always returns results sorted descending and at most k.
func TestNearestSortedProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	s := NewStore(8)
	for i := 0; i < 100; i++ {
		v := vector.New(8)
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		s.Add(randWord(rng)+string(rune('a'+i%26)), v)
	}
	f := func() bool {
		q := vector.New(8)
		for j := range q {
			q[j] = rng.NormFloat64()
		}
		k := 1 + rng.Intn(20)
		nn := s.Nearest(q, k, nil)
		if len(nn) > k {
			return false
		}
		for i := 1; i < len(nn); i++ {
			if nn[i].Similarity > nn[i-1].Similarity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// lookupBitsGolden holds, per Identity, the FNV-1a hash of what Lookup
// returns over identityWords: a hit/miss byte per word, then every
// component's bits of each hit. lake.bin stores topics under the
// identity of the model that derived them and reuses them whenever the
// identities are equal, so a change to Lookup's bits under an unchanged
// identity would serve stale topics.
var lookupBitsGolden = map[string]string{
	"embedding.Hashed/v1 dim=64 seed=1 coverage=0.95": "d0bf6e454ce83f0b",
	"embedding.Hashed/v1 dim=24 seed=-3 coverage=0.7": "cb5fb9ae47dc6aaa",
}

func identityWords() []string {
	rng := rand.New(rand.NewSource(41))
	words := []string{"", "a", "été", "straße", "数据湖", "fisheries", "seattle", "permits"}
	for len(words) < 512 {
		words = append(words, randWord(rng))
	}
	return words
}

// TestHashedIdentityPinsLookupBits fails when Lookup's bits change
// while Identity stays the same. Changing the algorithm means bumping
// hashedVersion and pinning the new identities' hashes here.
func TestHashedIdentityPinsLookupBits(t *testing.T) {
	words := identityWords()
	for _, m := range []*Hashed{NewHashed(64, 1, 0.95), NewHashed(24, -3, 0.7)} {
		h := fnv.New64a()
		var buf [8]byte
		for _, w := range words {
			v, ok := m.Lookup(w)
			if !ok {
				h.Write([]byte{0})
				continue
			}
			h.Write([]byte{1})
			for _, x := range v {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
				h.Write(buf[:])
			}
		}
		got := fmt.Sprintf("%016x", h.Sum64())
		want, ok := lookupBitsGolden[m.Identity()]
		if !ok {
			t.Errorf("no golden for identity %q (Lookup bits hash %s)", m.Identity(), got)
			continue
		}
		if got != want {
			t.Errorf("identity %q: Lookup bits hash %s, golden %s; the algorithm changed, so bump hashedVersion", m.Identity(), got, want)
		}
	}
}

// Identity tells apart every constructor parameter, and models that
// have none report "".
func TestIdentityDistinguishesModels(t *testing.T) {
	ids := map[string]bool{}
	for _, m := range []*Hashed{
		NewHashed(64, 1, 0.95), NewHashed(32, 1, 0.95), NewHashed(64, 2, 0.95),
		NewHashed(64, 1, 0.9500000000000001), NewHashed(64, 1, 1),
	} {
		id := Identity(m)
		if id == "" || ids[id] {
			t.Fatalf("Identity(%+v) = %q: empty or shared with another model", *m, id)
		}
		ids[id] = true
	}
	if id := Identity(NewStore(4)); id != "" {
		t.Errorf("Identity(Store) = %q, want \"\"", id)
	}
}
