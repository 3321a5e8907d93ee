package serve

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"lakenav"
	"lakenav/internal/stats"
	"lakenav/internal/synth"
)

// benchFixture holds a synthetic-scale organization: the serving cache
// only matters when the reach sweep it amortizes is nontrivial, so the
// benchmark uses the reduced Socrata-like instance (whose table-level
// tags survive the JSON roundtrip) rather than the toy lake.
var benchFixture struct {
	once    sync.Once
	org     *lakenav.Organization
	search  *lakenav.SearchEngine
	queries []string
	err     error
}

func benchOrg(b *testing.B) (*lakenav.Organization, *lakenav.SearchEngine, []string) {
	b.Helper()
	benchFixture.once.Do(func() {
		cfg := synth.SmallSocrataConfig()
		soc, err := synth.GenerateSocrata(cfg)
		if err != nil {
			benchFixture.err = err
			return
		}
		path := filepath.Join(b.TempDir(), "lake.json")
		if err := soc.Lake.SaveFile(path); err != nil {
			benchFixture.err = err
			return
		}
		l, err := lakenav.LoadJSON(path)
		if err != nil {
			benchFixture.err = err
			return
		}
		org, err := lakenav.Organize(l, lakenav.Config{Dimensions: 1, Seed: 1})
		if err != nil {
			benchFixture.err = err
			return
		}
		org.Warm()
		benchFixture.org = org
		benchFixture.search = lakenav.NewSearchEngine(l)
		benchFixture.queries = l.Tags()
	})
	if benchFixture.err != nil {
		b.Fatal(benchFixture.err)
	}
	return benchFixture.org, benchFixture.search, benchFixture.queries
}

// zipfQueries precomputes a skewed query schedule so the benchmark loop
// measures serving, not sampling.
func zipfQueries(b *testing.B, queries []string, n int) []string {
	b.Helper()
	z, err := stats.NewZipf(len(queries), 1.1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	out := make([]string, n)
	for i := range out {
		out[i] = queries[z.Sample(rng)-1]
	}
	return out
}

func benchmarkDiscover(b *testing.B, cache *Cache) {
	org, search, queries := benchOrg(b)
	s := NewSnapshot(org, search, Config{Cache: cache})
	sched := zipfQueries(b, queries, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Discover(0, sched[i%len(sched)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDiscoverZipfUncached is the reference path: every request
// pays the full reach sweep.
func BenchmarkDiscoverZipfUncached(b *testing.B) { benchmarkDiscover(b, nil) }

// BenchmarkDiscoverZipfCached is the serving fast path on the same
// skewed schedule; PR 5 recorded it at ≥1.5x the uncached run.
// End-to-end serving cost is measured by `bash cmd/lakebench/run.sh`.
func BenchmarkDiscoverZipfCached(b *testing.B) { benchmarkDiscover(b, NewCache(DefaultCacheSize)) }

func benchmarkSuggest(b *testing.B, cache *Cache) {
	org, search, queries := benchOrg(b)
	s := NewSnapshot(org, search, Config{Cache: cache})
	sched := zipfQueries(b, queries, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Suggest(0, "", sched[i%len(sched)], 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSuggestZipfUncached(b *testing.B) { benchmarkSuggest(b, nil) }
func BenchmarkSuggestZipfCached(b *testing.B)   { benchmarkSuggest(b, NewCache(DefaultCacheSize)) }

func BenchmarkSuggestBatch(b *testing.B) {
	org, search, queries := benchOrg(b)
	s := NewSnapshot(org, search, Config{Cache: NewCache(DefaultCacheSize)})
	sched := zipfQueries(b, queries, 256)
	reqs := make([]SuggestRequest, len(sched))
	for i, q := range sched {
		reqs[i] = SuggestRequest{Q: q, K: 10}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.SuggestBatch(reqs)
	}
}
