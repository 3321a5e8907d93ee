// Package ann provides approximate nearest-neighbour search under cosine
// similarity via random-hyperplane LSH (SimHash).
//
// The evaluation's success probability (Sec 4.2) needs, for every
// attribute A, the set of attributes with cosine similarity at least
// θ = 0.9 to A. Computing that exactly is O(n²·dim); the LSH index cuts
// it to candidate sets that are verified exactly, which matters at the
// Socrata scale. The index over-retrieves and then filters, so results
// have no false positives; recall is tuned by the number of bands.
package ann

import (
	"fmt"
	"math/bits"
	"math/rand"
	"sort"

	"lakenav/vector"
)

// Config controls index shape.
type Config struct {
	// Dim is the vector dimension.
	Dim int
	// Bits is the number of hyperplanes per band signature (hash width).
	Bits int
	// Bands is the number of independent hash tables. A candidate is
	// anything sharing at least one band bucket with the query.
	Bands int
	// Seed makes hyperplane generation reproducible.
	Seed int64
}

// DefaultConfig returns an index shape with good recall at cosine ≥ 0.9:
// 16-bit signatures over 8 bands.
func DefaultConfig(dim int) Config {
	return Config{Dim: dim, Bits: 16, Bands: 8, Seed: 1}
}

// Index is a SimHash LSH index over cosine similarity.
type Index struct {
	cfg    Config
	planes [][]vector.Vector // [band][bit] hyperplane normals
	tables []map[uint64][]int
	vecs   []vector.Vector
}

// New returns an empty index. It panics on non-positive dimensions.
func New(cfg Config) *Index {
	if cfg.Dim <= 0 || cfg.Bits <= 0 || cfg.Bits > 64 || cfg.Bands <= 0 {
		panic(fmt.Sprintf("ann: invalid config %+v", cfg))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	idx := &Index{cfg: cfg}
	idx.planes = make([][]vector.Vector, cfg.Bands)
	idx.tables = make([]map[uint64][]int, cfg.Bands)
	for b := range idx.planes {
		idx.planes[b] = make([]vector.Vector, cfg.Bits)
		for i := range idx.planes[b] {
			p := vector.New(cfg.Dim)
			for j := range p {
				p[j] = rng.NormFloat64()
			}
			idx.planes[b][i] = p
		}
		idx.tables[b] = make(map[uint64][]int)
	}
	return idx
}

// Len returns the number of indexed vectors.
//
//lakelint:ignore deadexport -- ROADMAP item "Make the Sec 4.2 success probability exact and delete internal/ann" removes this package
func (x *Index) Len() int { return len(x.vecs) }

// signature hashes v in band b.
func (x *Index) signature(b int, v vector.Vector) uint64 {
	var sig uint64
	for i, p := range x.planes[b] {
		if vector.Dot(p, v) >= 0 {
			sig |= 1 << uint(i)
		}
	}
	return sig
}

// Add indexes v and returns its id (dense, insertion order). The vector
// is not cloned; callers must not mutate it afterwards.
func (x *Index) Add(v vector.Vector) int {
	if len(v) != x.cfg.Dim {
		panic(fmt.Sprintf("ann: Add dimension %d != %d", len(v), x.cfg.Dim))
	}
	id := len(x.vecs)
	x.vecs = append(x.vecs, v)
	for b := range x.tables {
		sig := x.signature(b, v)
		x.tables[b][sig] = append(x.tables[b][sig], id)
	}
	return id
}

// Match is a query result: an indexed id and its exact cosine similarity
// to the query.
type Match struct {
	ID         int
	Similarity float64
}

// Similar returns all indexed vectors with exact cosine similarity at
// least threshold to query, restricted to LSH candidates, sorted by
// descending similarity (ties by id). The query itself is included if
// indexed and similar.
func (x *Index) Similar(query vector.Vector, threshold float64) []Match {
	seen := make(map[int]bool)
	var out []Match
	for b := range x.tables {
		sig := x.signature(b, query)
		for _, id := range x.tables[b][sig] {
			if seen[id] {
				continue
			}
			seen[id] = true
			if s := vector.Cosine(query, x.vecs[id]); s >= threshold {
				out = append(out, Match{ID: id, Similarity: s})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// SimilarBrute computes the exact answer by linear scan; used for small
// inputs and in tests as ground truth for recall measurement.
//
//lakelint:ignore deadexport -- ROADMAP item "Make the Sec 4.2 success probability exact and delete internal/ann" removes this package
func (x *Index) SimilarBrute(query vector.Vector, threshold float64) []Match {
	var out []Match
	for id, v := range x.vecs {
		if s := vector.Cosine(query, v); s >= threshold {
			out = append(out, Match{ID: id, Similarity: s})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// HammingSimilarity estimates cosine from signature agreement in one
// band: cos(π·h/Bits) where h is the Hamming distance. Exposed for
// diagnostics and tests.
//
//lakelint:ignore deadexport -- ROADMAP item "Make the Sec 4.2 success probability exact and delete internal/ann" removes this package
func (x *Index) HammingSimilarity(b int, v, w vector.Vector) (agree int, total int) {
	sv, sw := x.signature(b, v), x.signature(b, w)
	h := bits.OnesCount64(sv ^ sw)
	return x.cfg.Bits - h, x.cfg.Bits
}
