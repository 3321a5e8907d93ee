// Package embedding provides the word-embedding substrate that lakenav's
// navigation model is built on.
//
// The paper (Nargesian et al., SIGMOD 2020, Sec 3.1) represents every
// attribute by a topic vector: the sample mean of the fastText embeddings
// of its values. Pretrained fastText vectors are a proprietary-size
// external artifact, so this package substitutes a deterministic
// *synthetic* embedding space with the same geometry the model consumes:
//
//   - every word maps to a reproducible unit vector (hash-seeded Gaussian),
//     so unrelated words are near-orthogonal in high dimension;
//   - a TopicSpace plants topic centroids with a minimum pairwise
//     separation and generates vocabulary neighbourhoods around them, so
//     words that share a topic have high cosine similarity — exactly the
//     property the TagCloud benchmark construction relies on;
//   - a configurable coverage fraction emulates fastText's ~70% hit rate
//     on open-data text values.
//
// Everything downstream (topic vectors, transition probabilities, success
// probabilities) only ever consumes cosine geometry, so the substitution
// preserves the behaviour the evaluation measures.
package embedding

import (
	"hash/fnv"
	"math/rand"
	"sort"

	"lakenav/vector"
)

// Model is the minimal interface the rest of lakenav needs from an
// embedding source: a word lookup and the embedding dimension.
//
// Lookup must be safe for concurrent use and a pure function of the
// word: the same word always yields the same vector (or the same miss),
// whatever was looked up before and on whichever goroutine. The lake's
// topic kernel relies on both — it looks each distinct word up once,
// fanned out over GOMAXPROCS, and reuses the vector for every
// occurrence. Hashed is stateless; Store and TopicSpace only read their
// maps once built, so they must not be modified (Store.Add) while a
// lookup may run.
type Model interface {
	// Lookup returns the embedding of word and true, or nil and false if
	// the word is out of vocabulary. Callers must not modify the
	// returned vector: a Store returns the vector it holds, not a copy.
	Lookup(word string) (vector.Vector, bool)
	// Dim returns the embedding dimension.
	Dim() int
}

// wordSeed derives a stable 64-bit seed from a word and a model seed.
func wordSeed(word string, seed int64) int64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(word)) // hash.Hash.Write never fails
	return int64(h.Sum64()) ^ seed
}

// gaussianUnit fills a fresh unit vector with Gaussian components drawn
// from rng. In high dimension such vectors are nearly orthogonal to each
// other, matching the behaviour of embeddings of unrelated words.
func gaussianUnit(rng *rand.Rand, dim int) vector.Vector {
	v := vector.New(dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return vector.Normalize(v)
}

// Hashed is a stateless Model that deterministically embeds any word by
// seeding a Gaussian unit vector from the word's hash. A Coverage
// fraction below 1 declares a deterministic subset of words out of
// vocabulary, emulating the partial coverage of pretrained embeddings.
type Hashed struct {
	dim      int
	seed     int64
	coverage float64
}

// NewHashed returns a Hashed model of the given dimension. coverage must
// be in (0, 1]; words hashing outside the covered fraction report
// out-of-vocabulary.
func NewHashed(dim int, seed int64, coverage float64) *Hashed {
	if dim <= 0 {
		panic("embedding: NewHashed non-positive dim")
	}
	if coverage <= 0 || coverage > 1 {
		panic("embedding: NewHashed coverage outside (0, 1]")
	}
	return &Hashed{dim: dim, seed: seed, coverage: coverage}
}

// Dim returns the embedding dimension.
func (h *Hashed) Dim() int { return h.dim }

// Lookup returns the deterministic embedding of word, or false if word
// falls in the uncovered fraction of the hash space.
func (h *Hashed) Lookup(word string) (vector.Vector, bool) {
	s := wordSeed(word, h.seed)
	if h.coverage < 1 {
		// A second, independent hash decides coverage so that coverage
		// does not correlate with vector direction.
		u := fnv.New64()
		_, _ = u.Write([]byte(word)) // hash.Hash.Write never fails
		_, _ = u.Write([]byte{0xC0})
		frac := float64(u.Sum64()%1_000_000) / 1_000_000
		if frac >= h.coverage {
			return nil, false
		}
	}
	return gaussianUnit(rand.New(rand.NewSource(s)), h.dim), true
}

// Store is an explicit vocabulary: a map from word to embedding vector.
// It is the in-memory equivalent of a pretrained embedding file and
// supports exact nearest-neighbour queries over its vocabulary.
type Store struct {
	dim   int
	words []string
	index map[string]int
	vecs  []vector.Vector
}

// NewStore returns an empty store for dim-dimensional embeddings.
func NewStore(dim int) *Store {
	if dim <= 0 {
		panic("embedding: NewStore non-positive dim")
	}
	return &Store{dim: dim, index: make(map[string]int)}
}

// Dim returns the embedding dimension.
func (s *Store) Dim() int { return s.dim }

// Len returns the vocabulary size.
func (s *Store) Len() int { return len(s.words) }

// Add inserts or replaces the embedding for word. The vector is cloned.
func (s *Store) Add(word string, v vector.Vector) {
	if len(v) != s.dim {
		panic("embedding: Store.Add dimension mismatch")
	}
	if i, ok := s.index[word]; ok {
		s.vecs[i] = v.Clone()
		return
	}
	s.index[word] = len(s.words)
	s.words = append(s.words, word)
	s.vecs = append(s.vecs, v.Clone())
}

// Lookup returns the embedding for word, or false if absent.
func (s *Store) Lookup(word string) (vector.Vector, bool) {
	i, ok := s.index[word]
	if !ok {
		return nil, false
	}
	return s.vecs[i], true
}

// Has reports whether word is in the vocabulary.
func (s *Store) Has(word string) bool {
	_, ok := s.index[word]
	return ok
}

// Words returns the vocabulary in insertion order. The returned slice
// must not be modified.
func (s *Store) Words() []string { return s.words }

// Neighbor is a word together with its cosine similarity to a query.
type Neighbor struct {
	Word       string
	Similarity float64
}

// Nearest returns the k vocabulary words most cosine-similar to query,
// in descending similarity order. Words listed in exclude are skipped.
// Fewer than k neighbours are returned when the vocabulary is small.
func (s *Store) Nearest(query vector.Vector, k int, exclude map[string]bool) []Neighbor {
	if k <= 0 {
		return nil
	}
	out := make([]Neighbor, 0, len(s.words))
	for i, w := range s.words {
		if exclude != nil && exclude[w] {
			continue
		}
		out = append(out, Neighbor{Word: w, Similarity: vector.Cosine(query, s.vecs[i])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Similarity != out[j].Similarity {
			return out[i].Similarity > out[j].Similarity
		}
		return out[i].Word < out[j].Word
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// NearestWord is a convenience wrapper around Nearest for string queries;
// it returns no neighbours when word is out of vocabulary.
func (s *Store) NearestWord(word string, k int, excludeSelf bool) []Neighbor {
	v, ok := s.Lookup(word)
	if !ok {
		return nil
	}
	var exclude map[string]bool
	if excludeSelf {
		exclude = map[string]bool{word: true}
	}
	return s.Nearest(v, k, exclude)
}
