package embedding

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"lakenav/vector"
)

// lazySeeds are the edge seeds of math/rand's seed normalization
// (reduction mod 2³¹−1, sign folding, 0 → 89482311) plus n random ones.
func lazySeeds(n int) []int64 {
	seeds := []int64{
		0, 1, -1, int32max, -int32max, 2 * int32max,
		math.MinInt64, math.MaxInt64, 89482311,
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < n; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	return seeds
}

// The lazy source must draw exactly what math/rand's own source draws
// for the same seed, through every Rand method Lookup and its callers
// use, past the 607-cell register wrap, and after being reseeded from
// any earlier state. The seeds are split over goroutines, each with
// its own source, so the race detector sees the pool's usage pattern.
func TestLazySourceMatchesMathRand(t *testing.T) {
	const draws = 2000
	seeds := lazySeeds(2000)
	const goroutines = 4
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			lazy := rand.New(&lazySource{})
			for k := g; k < len(seeds); k += goroutines {
				s := seeds[k]
				want := rand.New(rand.NewSource(s))
				lazy.Seed(s)
				for i := 0; i < draws; i++ {
					if got, w := lazy.Uint64(), want.Uint64(); got != w {
						errs <- "Uint64"
						return
					}
				}
				want.Seed(s)
				lazy.Seed(s)
				for i := 0; i < draws; i++ {
					if got, w := lazy.Int63(), want.Int63(); got != w {
						errs <- "Int63"
						return
					}
				}
				want.Seed(s)
				lazy.Seed(s)
				for i := 0; i < draws; i++ {
					if got, w := lazy.NormFloat64(), want.NormFloat64(); math.Float64bits(got) != math.Float64bits(w) {
						errs <- "NormFloat64"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for m := range errs {
		t.Errorf("lazy source %s stream differs from math/rand", m)
	}
}

// A used, reseeded source must draw what a fresh source does, however
// far the previous seed's stream got.
func TestLazySourceReseedMatchesFresh(t *testing.T) {
	used := &lazySource{}
	for k, s := range lazySeeds(50) {
		used.Seed(int64(k) * 7919)
		for i := 0; i < k*37; i++ {
			used.Uint64()
		}
		used.Seed(s)
		fresh := &lazySource{}
		fresh.Seed(s)
		for i := 0; i < 1300; i++ {
			if a, b := used.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: reseeded %d, fresh %d", s, i, a, b)
			}
		}
	}
}

// Lookup must return the vector a fresh math/rand source seeded with
// the word's seed draws, at every width.
func TestLazySourceLookupMatchesMathRand(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, dim := range []int{1, 64, 300} {
		m := NewHashed(dim, 7, 1)
		for i := 0; i < 300; i++ {
			w := randWord(rng)
			got, ok := m.Lookup(w)
			want := gaussianUnit(rand.New(rand.NewSource(wordSeed(w, 7))), dim)
			if !ok || !vector.Equal(got, want, 0) {
				t.Fatalf("dim %d: Lookup(%q) differs from math/rand", dim, w)
			}
		}
	}
}

// Seeding and drawing — including filling every cell once the stream
// wraps the register — must not allocate.
func TestLazySourceZeroAllocs(t *testing.T) {
	src := &lazySource{}
	seed := int64(0)
	allocs := testing.AllocsPerRun(50, func() {
		seed++
		src.Seed(seed)
		for i := 0; i < 2*rngLen; i++ {
			src.Uint64()
		}
	})
	if allocs != 0 {
		t.Errorf("lazySource seed+draw allocates %v per run", allocs)
	}
}
