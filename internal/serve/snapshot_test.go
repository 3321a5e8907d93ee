package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"lakenav"
	"lakenav/internal/stats"
	"lakenav/vector"
)

// fixture shares one built organization and search engine across the
// package's tests: serve never mutates either, so sharing is safe and
// keeps the suite fast.
var fixture struct {
	once   sync.Once
	org    *lakenav.Organization
	search *lakenav.SearchEngine
	err    error
}

func testLake() *lakenav.Lake {
	l := lakenav.NewLake()
	l.AddTable("fish_inventory", []string{"fisheries", "ocean"},
		lakenav.Column{Name: "species", Values: []string{"pacific salmon", "atlantic cod", "rainbow trout", "halibut catch"}},
		lakenav.Column{Name: "weight", Values: []string{"12.5", "8.0", "3.2"}},
	)
	l.AddTable("crop_yields", []string{"agriculture", "grain"},
		lakenav.Column{Name: "crop", Values: []string{"winter wheat", "spring barley", "yellow corn", "canola seed"}},
	)
	l.AddTable("transit_routes", []string{"city", "transport"},
		lakenav.Column{Name: "route", Values: []string{"downtown express", "harbour loop", "airport shuttle", "night bus"}},
	)
	l.AddTable("budget_2025", []string{"finance"},
		lakenav.Column{Name: "category", Values: []string{"capital spending", "operating budget", "debt service", "tax revenue"}},
	)
	l.AddTable("food_inspections", []string{"fisheries", "agriculture"},
		lakenav.Column{Name: "product", Values: []string{"smoked salmon", "wheat flour", "corn meal", "fish oil"}},
	)
	return l
}

func testOrg(t testing.TB) (*lakenav.Organization, *lakenav.SearchEngine) {
	t.Helper()
	fixture.once.Do(func() {
		l := testLake()
		fixture.org, fixture.err = lakenav.Organize(l, lakenav.Config{Dimensions: 1, Seed: 1})
		fixture.search = lakenav.NewSearchEngine(l)
	})
	if fixture.err != nil {
		t.Fatalf("Organize: %v", fixture.err)
	}
	return fixture.org, fixture.search
}

// queryCorpus mixes embeddable lake vocabulary with a digits-only query
// (which tokenizes to nothing), so request streams exercise both topic
// paths.
var queryCorpus = []string{
	"salmon fishing", "wheat harvest", "corn", "night bus", "harbour",
	"tax revenue", "fish oil", "airport", "capital spending", "barley",
	"12345", // digits-only: tokenizes to nothing, so no query topic
}

func TestQuantizeTopicCanonical(t *testing.T) {
	in := vector.Vector{0.123456789, -0.98765, math.Copysign(0, -1), 1e-9}
	q := QuantizeTopic(in)
	// Idempotent: quantizing a quantized topic is the identity.
	if !reflect.DeepEqual(QuantizeTopic(q), q) {
		t.Error("QuantizeTopic is not idempotent")
	}
	// Negative zero collapses onto +0 so equal grid points hash equal.
	if math.Signbit(q[2]) {
		t.Error("-0 survived quantization")
	}
	if q[3] != 0 {
		t.Errorf("sub-grid component = %v, want 0", q[3])
	}
	// Grid error is bounded by half a grid step.
	for i, v := range q {
		if d := math.Abs(v - in[i]); d > 1.0/(2*quantScale)+1e-18 && !(in[i] == 0 || math.Signbit(in[i]) && in[i] == 0) {
			t.Errorf("component %d moved by %v", i, d)
		}
	}
}

func TestTopicHashDistinguishesTopics(t *testing.T) {
	a := topicHash(vector.Vector{1, 0, 0})
	b := topicHash(vector.Vector{0, 1, 0})
	if a == b {
		t.Error("distinct topics hashed equal (astronomically unlikely)")
	}
	if topicHash(vector.Vector{1, 0, 0}) != a {
		t.Error("topicHash not deterministic")
	}
}

func TestNavigateValidation(t *testing.T) {
	org, _ := testOrg(t)
	cases := []struct {
		name string
		dim  int
		path string
	}{
		{"negative dim", -1, ""},
		{"dim out of range", org.Dimensions(), ""},
		{"non-numeric element", 0, "x"},
		{"negative element", 0, "-1"},
		{"element out of range", 0, "999"},
	}
	for _, c := range cases {
		if _, err := Navigate(org, c.dim, c.path); err == nil {
			t.Errorf("%s: no error for dim=%d path=%q", c.name, c.dim, c.path)
		}
	}
	longPath := "0"
	for len(longPath) <= MaxPathLen {
		longPath += ".0"
	}
	if _, err := Navigate(org, 0, longPath); err == nil {
		t.Error("over-length path accepted")
	}
	if nav, err := Navigate(org, 0, ""); err != nil || nav.Depth() != 1 {
		t.Errorf("root navigate: nav=%v err=%v", nav, err)
	}
	if nav, err := Navigate(org, 0, "0"); err != nil || nav.Depth() != 2 {
		t.Errorf("one-step navigate: depth=%d err=%v", nav.Depth(), err)
	}
}

func TestSnapshotNotReady(t *testing.T) {
	_, search := testOrg(t)
	s := NewSnapshot(nil, search, Config{Cache: NewCache(8)})
	if s.Ready() {
		t.Fatal("nil-org snapshot reports ready")
	}
	if _, err := s.Suggest(0, "", "salmon", 0); err != ErrNotReady {
		t.Errorf("Suggest err = %v, want ErrNotReady", err)
	}
	if _, err := s.Discover(0, "salmon", 0); err != ErrNotReady {
		t.Errorf("Discover err = %v, want ErrNotReady", err)
	}
	// Search must serve from the lake even before the build lands.
	if hits := s.Search("salmon", 5); len(hits) == 0 {
		t.Error("Search returned nothing on a not-ready snapshot")
	}
}

func TestSuggestUnembeddableQuery(t *testing.T) {
	org, search := testOrg(t)
	s := NewSnapshot(org, search, Config{})
	sugg, err := s.Suggest(0, "", "12345", 0)
	if err != nil || sugg != nil {
		t.Errorf("digits-only query: sugg=%v err=%v", sugg, err)
	}
	// A bad path is still a client error even without an embedding.
	if _, err := s.Suggest(0, "999", "12345", 0); err == nil {
		t.Error("bad path accepted on unembeddable query")
	}
}

func TestDiscoverRankedAndTruncated(t *testing.T) {
	org, search := testOrg(t)
	s := NewSnapshot(org, search, Config{Cache: NewCache(64)})
	full, err := s.Discover(0, "salmon fishing", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 5 {
		t.Fatalf("Discover returned %d tables, want 5", len(full))
	}
	for i := 1; i < len(full); i++ {
		if full[i].Probability > full[i-1].Probability {
			t.Fatal("discoveries not sorted best-first")
		}
	}
	top, err := s.Discover(0, "salmon fishing", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || !reflect.DeepEqual(top, full[:2]) {
		t.Errorf("k-truncation mismatch: %v vs %v", top, full[:2])
	}
	if _, err := s.Discover(99, "salmon", 0); err == nil {
		t.Error("out-of-range dim accepted")
	}
}

func TestSuggestCacheHitIsBitIdentical(t *testing.T) {
	org, search := testOrg(t)
	s := NewSnapshot(org, search, Config{Cache: NewCache(64)})
	first, err := s.Suggest(0, "", "salmon fishing", 0)
	if err != nil {
		t.Fatal(err)
	}
	second, err := s.Suggest(0, "", "salmon fishing", 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Error("cache hit differs from the miss that filled it")
	}
}

// request is one deterministic operation of a property-test stream.
type request struct {
	op   int // 0 suggest, 1 discover, 2 search
	dim  int
	path string
	q    string
	k    int
}

// requestStream derives a skewed, reproducible operation stream: query
// indices are Zipf-distributed so the cached run actually hits.
func requestStream(t *testing.T, seed int64, n int) []request {
	t.Helper()
	z, err := stats.NewZipf(len(queryCorpus), 1.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	paths := []string{"", "0", "1", "0.0"}
	reqs := make([]request, n)
	for i := range reqs {
		q := queryCorpus[z.Sample(rng)-1]
		switch rng.Intn(3) {
		case 0:
			reqs[i] = request{op: 0, dim: 0, path: paths[rng.Intn(len(paths))], q: q, k: rng.Intn(4)}
		case 1:
			reqs[i] = request{op: 1, dim: 0, q: q, k: rng.Intn(4)}
		default:
			reqs[i] = request{op: 2, q: q, k: 1 + rng.Intn(5)}
		}
	}
	return reqs
}

// play answers one request and folds the result into a comparable
// value; errors fold to their message so both paths must agree on
// failures too.
func play(s *Snapshot, r request) any {
	switch r.op {
	case 0:
		sugg, err := s.Suggest(r.dim, r.path, r.q, r.k)
		if err != nil {
			return "err:" + err.Error()
		}
		return sugg
	case 1:
		disc, err := s.Discover(r.dim, r.q, r.k)
		if err != nil {
			return "err:" + err.Error()
		}
		return disc
	default:
		return s.Search(r.q, r.k)
	}
}

// TestCachedUncachedBitIdentical is the acceptance property: for every
// seed × cache size × GOMAXPROCS, a cached snapshot answers a skewed
// request stream bit-identically to the uncached reference path.
func TestCachedUncachedBitIdentical(t *testing.T) {
	org, search := testOrg(t)
	ref := NewSnapshot(org, search, Config{}) // no cache: reference
	for _, seed := range []int64{1, 2, 3} {
		reqs := requestStream(t, seed, 300)
		want := make([]any, len(reqs))
		for i, r := range reqs {
			want[i] = play(ref, r)
		}
		for _, size := range []int{1, 8, 1024} {
			for _, procs := range []int{1, 4} {
				name := fmt.Sprintf("seed=%d/cache=%d/procs=%d", seed, size, procs)
				withProcs(procs, func() {
					cached := NewSnapshot(org, search, Config{Cache: NewCache(size)})
					for i, r := range reqs {
						if got := play(cached, r); !reflect.DeepEqual(got, want[i]) {
							t.Fatalf("%s: request %d (%+v):\n got %v\nwant %v", name, i, r, got, want[i])
						}
					}
				})
			}
		}
	}
}

func TestBatchMatchesSequential(t *testing.T) {
	org, search := testOrg(t)
	for _, procs := range []int{1, 3, 8} {
		withProcs(procs, func() {
			s := NewSnapshot(org, search, Config{Cache: NewCache(32)})
			var sreqs []SuggestRequest
			var qreqs []SearchRequest
			for _, r := range requestStream(t, 7, 120) {
				switch r.op {
				case 0:
					sreqs = append(sreqs, SuggestRequest{Dim: r.dim, Path: r.path, Q: r.q, K: r.k})
				case 2:
					qreqs = append(qreqs, SearchRequest{Q: r.q, K: r.k})
				}
			}
			// Include a failing item: batches must isolate per-item errors.
			sreqs = append(sreqs, SuggestRequest{Dim: 42, Q: "salmon"})

			batch := s.SuggestBatch(sreqs)
			if len(batch) != len(sreqs) {
				t.Fatalf("procs=%d: batch len %d != %d", procs, len(batch), len(sreqs))
			}
			for i, r := range sreqs {
				sugg, err := s.Suggest(r.Dim, r.Path, r.Q, r.K)
				if (err == nil) != (batch[i].Err == nil) {
					t.Fatalf("procs=%d item %d: err mismatch %v vs %v", procs, i, batch[i].Err, err)
				}
				if err != nil && batch[i].Err.Error() != err.Error() {
					t.Fatalf("procs=%d item %d: err %q vs %q", procs, i, batch[i].Err, err)
				}
				if !reflect.DeepEqual(batch[i].Suggestions, sugg) {
					t.Fatalf("procs=%d item %d: batch result differs from sequential", procs, i)
				}
			}
			sbatch := s.SearchBatch(qreqs)
			for i, r := range qreqs {
				if !reflect.DeepEqual(sbatch[i].Tables, s.Search(r.Q, r.K)) {
					t.Fatalf("procs=%d search item %d differs from sequential", procs, i)
				}
			}
		})
	}
}

// withProcs runs fn at the given GOMAXPROCS, which sizes the batch
// fan-out pool, and restores the previous value.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// TestSnapshotSwapUnderLoad hammers a shared cache from concurrent
// readers while the served snapshot is swapped, the navserver's exact
// concurrency shape. Run under -race this is the regression test for
// the serving fast path's synchronization story; it also pins that
// post-swap answers are bit-identical to a fresh uncached evaluation.
func TestSnapshotSwapUnderLoad(t *testing.T) {
	org, search := testOrg(t)
	cache := NewCache(32)
	var cur atomic.Pointer[Snapshot]
	cur.Store(NewSnapshot(org, search, Config{Cache: cache}))

	ref := NewSnapshot(org, search, Config{})
	reqs := requestStream(t, 11, 64)
	want := make([]any, len(reqs))
	for i, r := range reqs {
		want[i] = play(ref, r)
	}

	const readers = 8
	var wg sync.WaitGroup
	errc := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 40; it++ {
				i := (g + it) % len(reqs)
				if got := play(cur.Load(), reqs[i]); !reflect.DeepEqual(got, want[i]) {
					select {
					case errc <- fmt.Errorf("reader %d request %d diverged", g, i):
					default:
					}
					return
				}
			}
		}(g)
	}
	for swap := 0; swap < 20; swap++ {
		cur.Store(NewSnapshot(org, search, Config{Cache: cache}))
	}
	wg.Wait()
	close(errc)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
}
