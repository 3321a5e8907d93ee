package embedding

import (
	"fmt"
	"math"
	"math/rand"

	"lakenav/vector"
)

// TopicSpace is a synthetic embedding space with planted topic structure.
// Each topic has a centroid; centroids are rejected-sampled to keep a
// minimum pairwise angular separation (the paper's TagCloud benchmark
// samples 365 words "that are not very close according to Cosine
// similarity"). Topic vocabulary words are Gaussian perturbations of
// their centroid, so the "k most similar words to a tag" construction
// used by the benchmark generator has a known ground truth.
type TopicSpace struct {
	store  *Store
	topics []string
}

// TopicSpaceConfig controls synthetic topic-space generation.
type TopicSpaceConfig struct {
	// Dim is the embedding dimension. The paper uses 300-d fastText;
	// lakenav defaults to 64 which preserves near-orthogonality of
	// unrelated words while staying fast on one core.
	Dim int
	// Topics is the number of planted topic centroids.
	Topics int
	// WordsPerTopic is the vocabulary neighbourhood size generated around
	// each centroid. It bounds the attribute cardinality the benchmark
	// can sample (the paper samples 10–1000 values per attribute).
	WordsPerTopic int
	// Sigma is the Gaussian noise scale of neighbourhood words relative
	// to the unit centroid. Smaller sigma means tighter topics.
	Sigma float64
	// MaxCentroidCosine is the rejection threshold: every pair of topic
	// centroids must have cosine similarity at most this value. It is
	// only enforced across families when SuperTopics > 0.
	MaxCentroidCosine float64
	// SuperTopics, when positive, generates centroids in correlated
	// families: SuperTopics family directions are sampled first and each
	// topic centroid is a perturbed family member. Pretrained embedding
	// spaces have exactly this structure (fisheries/oceans/seafood are
	// mutually close), and it is what makes hierarchy construction
	// nontrivial — with near-orthogonal centroids any clustering is
	// already optimal. Zero keeps independent centroids.
	SuperTopics int
	// FamilySpread is the Gaussian perturbation scale of a topic around
	// its family direction (only used when SuperTopics > 0). Smaller
	// values make same-family topics more confusable. Default 0.5.
	FamilySpread float64
	// Seed makes generation reproducible.
	Seed int64
}

// NewTopicSpace generates a topic space from cfg.
func NewTopicSpace(cfg TopicSpaceConfig) (*TopicSpace, error) {
	if cfg.Dim <= 0 || cfg.Topics <= 0 || cfg.WordsPerTopic <= 0 {
		return nil, fmt.Errorf("embedding: invalid topic space config %+v", cfg)
	}
	if cfg.Sigma <= 0 {
		return nil, fmt.Errorf("embedding: sigma must be positive, got %v", cfg.Sigma)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	ts := &TopicSpace{
		store: NewStore(cfg.Dim),
	}

	// Family directions for correlated centroid generation.
	var families []vector.Vector
	spread := cfg.FamilySpread
	if spread == 0 {
		spread = 0.5
	}
	if cfg.SuperTopics > 0 {
		for f := 0; f < cfg.SuperTopics; f++ {
			families = append(families, gaussianUnit(rng, cfg.Dim))
		}
	}

	centroids := make([]vector.Vector, 0, cfg.Topics)
	const maxAttempts = 10000
	for t := 0; t < cfg.Topics; t++ {
		var c vector.Vector
		ok := false
		for attempt := 0; attempt < maxAttempts; attempt++ {
			if len(families) > 0 {
				fam := families[t%len(families)]
				c = fam.Clone()
				for i := range c {
					c[i] += rng.NormFloat64() * spread / math.Sqrt(float64(len(c)))
				}
				// Per-component spread/√dim gives a total displacement of
				// ~spread relative to the unit family direction, so the
				// intra-family cosine is ~1/√(1+spread²) independent of
				// dimension.
				c = vector.Normalize(c)
				// With families, the separation constraint intentionally
				// holds only against other families' centroids.
				ok = true
				break
			}
			c = gaussianUnit(rng, cfg.Dim)
			ok = true
			for _, prev := range centroids {
				if vector.Cosine(c, prev) > cfg.MaxCentroidCosine {
					ok = false
					break
				}
			}
			if ok {
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("embedding: could not place %d centroids with max cosine %v in %d dims",
				cfg.Topics, cfg.MaxCentroidCosine, cfg.Dim)
		}
		name := TopicName(t)
		centroids = append(centroids, c)
		ts.topics = append(ts.topics, name)
		ts.store.Add(name, c)

		for w := 0; w < cfg.WordsPerTopic; w++ {
			word := TopicWordName(t, w)
			v := c.Clone()
			for i := range v {
				v[i] += rng.NormFloat64() * cfg.Sigma / math.Sqrt(float64(len(v)))
			}
			// Per-component noise of sigma/√dim gives a dimension-
			// independent angular displacement of ~sigma, keeping the
			// neighbourhood tightly clustered around the centroid while
			// still distinguishing its words.
			v = vector.Normalize(v)
			ts.store.Add(word, v)
		}
	}
	return ts, nil
}

// TopicName returns the canonical name of the t-th planted topic.
func TopicName(t int) string { return fmt.Sprintf("topic%03d", t) }

// TopicWordName returns the canonical name of the w-th vocabulary word of
// the t-th planted topic.
func TopicWordName(t, w int) string { return fmt.Sprintf("topic%03d_w%04d", t, w) }

// Store returns the underlying vocabulary store (also a Model).
func (ts *TopicSpace) Store() *Store { return ts.store }

// Dim returns the embedding dimension.
func (ts *TopicSpace) Dim() int { return ts.store.Dim() }

// Lookup implements Model.
func (ts *TopicSpace) Lookup(word string) (vector.Vector, bool) { return ts.store.Lookup(word) }

// Topics returns the planted topic names in generation order. The
// returned slice must not be modified.
func (ts *TopicSpace) Topics() []string { return ts.topics }
