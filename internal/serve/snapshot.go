// Package serve is the navigation serving fast path: an immutable
// per-organization Snapshot owning cached, batched evaluation of the
// request-level operations (child suggestion ranking, table discovery
// sweeps, keyword search).
//
// The cost model follows the extended paper ("Optimizing Organizations
// for Navigating Data Lakes"): serving cost is dominated by repeated
// softmax/reach sweeps over the same organization, and interactive
// exploration workloads are read-heavy and highly skewed. The fast
// path exploits exactly that shape:
//
//   - query topics are quantized to a fixed grid and used as cache
//     keys into a generation-stamped LRU (Cache) shared across
//     organization swaps;
//   - evaluation always runs on the quantized topic, so a cache hit
//     replays bit-for-bit what a miss would compute — the cached and
//     uncached paths are bit-identical by construction, which the
//     property tests pin across seeds, cache sizes, and worker counts;
//   - batched entry points (SuggestBatch, SearchBatch) fan requests
//     across the evaluator's bounded worker pool (core.ParallelFor),
//     amortizing per-request overhead, and NewSnapshot pre-warms the
//     organization's lazy topological caches so no request ever
//     triggers a lazy rebuild mid-flight.
//
// Snapshots are immutable: the navserver swaps a fresh Snapshot in
// atomically when the served organization changes, and the new
// generation number invalidates every older cache entry wholesale.
package serve

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"lakenav"
	"lakenav/internal/core"
	"lakenav/vector"
)

// Request validation bounds shared with the HTTP layer: dotted
// navigation paths are user input and must not drive unbounded work.
const (
	// MaxPathLen bounds the byte length of a navigation path.
	MaxPathLen = 256
	// MaxPathElems bounds the depth of a navigation path.
	MaxPathElems = 64
)

// ErrNotReady reports that the snapshot has no organization yet (the
// background build has not landed); keyword search still works.
var ErrNotReady = errors.New("serve: organization not ready")

// quantScale is the topic-grid resolution: every query topic component
// is snapped to the nearest multiple of 1/2^16 before keying AND before
// evaluation. Quantizing before evaluation — not just before keying —
// is what makes cache hits bit-identical to misses: both paths see the
// same canonical topic. The grid error (≤ 2^-17 per component) is far
// below the topic-vector noise floor of the hashed embedding.
const quantScale = 1 << 16

// QuantizeTopic snaps a query topic onto the serving grid. Negative
// zeros are normalized so the same grid point always hashes the same.
func QuantizeTopic(topic vector.Vector) vector.Vector {
	q := make(vector.Vector, len(topic))
	for i, v := range topic {
		r := math.Round(v*quantScale) / quantScale
		if r == 0 {
			r = 0 // collapse -0 onto +0
		}
		q[i] = r
	}
	return q
}

// topicHash is FNV-1a over the quantized topic's IEEE-754 bits.
func topicHash(topic vector.Vector) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range topic {
		bits := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (bits >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// Config configures a Snapshot.
type Config struct {
	// Cache is the shared result cache; nil disables caching entirely,
	// which is the reference path the property tests compare against.
	Cache *Cache
}

// generation hands out one number per snapshot, process-wide.
var generation atomic.Uint64

// Snapshot is an immutable serving view over one organization (possibly
// not yet built) and the lake's search engine. All methods are safe for
// concurrent use; returned slices are shared with the cache and must be
// treated as read-only.
//
//lakelint:immutable
type Snapshot struct {
	org    *lakenav.Organization
	search *lakenav.SearchEngine
	cache  *Cache
	gen    uint64
}

// NewSnapshot wraps an organization (nil while the background build is
// still running) and a search engine for serving. The organization's
// lazy navigation caches are forced here, once, so concurrent request
// handling never pays or races a lazy rebuild.
func NewSnapshot(org *lakenav.Organization, search *lakenav.SearchEngine, cfg Config) *Snapshot {
	if org != nil {
		org.Warm()
	}
	return &Snapshot{
		org:    org,
		search: search,
		cache:  cfg.Cache,
		gen:    generation.Add(1),
	}
}

// Ready reports whether the snapshot carries an organization.
func (s *Snapshot) Ready() bool { return s.org != nil }

// Org returns the wrapped organization, or nil before the build lands.
func (s *Snapshot) Org() *lakenav.Organization { return s.org }

// Generation returns the snapshot's cache generation stamp.
func (s *Snapshot) Generation() uint64 { return s.gen }

// Navigate positions a fresh navigator at the dotted child-index path
// of the given dimension, validating both against the organization.
func Navigate(org *lakenav.Organization, dim int, path string) (*lakenav.Navigator, error) {
	if dim < 0 || dim >= org.Dimensions() {
		return nil, fmt.Errorf("dim %d out of range: organization has %d dimensions", dim, org.Dimensions())
	}
	if len(path) > MaxPathLen {
		return nil, fmt.Errorf("path longer than %d bytes", MaxPathLen)
	}
	nav := org.Navigator()
	nav.Reset(dim)
	if path == "" {
		return nav, nil
	}
	parts := strings.Split(path, ".")
	if len(parts) > MaxPathElems {
		return nil, fmt.Errorf("path deeper than %d elements", MaxPathElems)
	}
	for _, part := range parts {
		i, err := strconv.Atoi(part)
		if err != nil || i < 0 {
			return nil, fmt.Errorf("bad path element %q", part)
		}
		if !nav.Descend(i) {
			return nil, fmt.Errorf("path element %d out of range", i)
		}
	}
	return nav, nil
}

// Suggest ranks the children at (dim, path) against the query, most
// likely first, truncated to k when k > 0. A query with no embeddable
// term returns nil, like Navigator.Suggest. The full ranking is cached
// by quantized query topic.
func (s *Snapshot) Suggest(dim int, path, query string, k int) ([]lakenav.ScoredNode, error) {
	if s.org == nil {
		return nil, ErrNotReady
	}
	topic, ok := s.org.QueryTopic(query)
	if !ok {
		// Still validate the position: a bad path is a client error even
		// when the query has no embedding.
		if _, err := Navigate(s.org, dim, path); err != nil {
			return nil, err
		}
		return nil, nil
	}
	qt := QuantizeTopic(topic)
	key := cacheKey{kind: kindSuggest, dim: dim, path: path, topicHash: topicHash(qt)}
	if s.cache != nil {
		if v, ok := s.cache.get(s.gen, key, qt); ok {
			return truncateNodes(v.([]lakenav.ScoredNode), k), nil
		}
	}
	nav, err := Navigate(s.org, dim, path)
	if err != nil {
		return nil, err
	}
	full := nav.SuggestTopic(qt)
	if s.cache != nil {
		s.cache.put(s.gen, key, qt, full)
	}
	return truncateNodes(full, k), nil
}

// Discover returns the tables most likely to be discovered by a
// navigation session under the query, best first, truncated to k when
// k > 0. The underlying reach-probability sweep — the expensive,
// whole-DAG softmax cascade — is computed once per quantized query
// topic and dimension, then replayed from the cache.
func (s *Snapshot) Discover(dim int, query string, k int) ([]lakenav.TableDiscovery, error) {
	if s.org == nil {
		return nil, ErrNotReady
	}
	if dim < 0 || dim >= s.org.Dimensions() {
		return nil, fmt.Errorf("dim %d out of range: organization has %d dimensions", dim, s.org.Dimensions())
	}
	topic, ok := s.org.QueryTopic(query)
	if !ok {
		return nil, nil
	}
	qt := QuantizeTopic(topic)
	key := cacheKey{kind: kindDiscover, dim: dim, topicHash: topicHash(qt)}
	if s.cache != nil {
		if v, ok := s.cache.get(s.gen, key, qt); ok {
			return truncateTables(v.([]lakenav.TableDiscovery), k), nil
		}
	}
	disc, err := s.org.DiscoverTopic(dim, qt)
	if err != nil {
		return nil, err
	}
	// Rank best-first; ties keep lake table order (stable sort), so the
	// result is deterministic for a given organization.
	sort.SliceStable(disc, func(i, j int) bool { return disc[i].Probability > disc[j].Probability })
	if s.cache != nil {
		s.cache.put(s.gen, key, qt, disc)
	}
	return truncateTables(disc, k), nil
}

// Search returns up to k table names ranked by BM25 relevance, cached
// by the exact query string. Search never needs the organization and
// therefore works on a not-ready snapshot.
func (s *Snapshot) Search(query string, k int) []string {
	key := cacheKey{kind: kindSearch, path: query, k: k}
	if s.cache != nil {
		if v, ok := s.cache.get(s.gen, key, nil); ok {
			return v.([]string)
		}
	}
	res := s.search.Search(query, k)
	if s.cache != nil {
		s.cache.put(s.gen, key, nil, res)
	}
	return res
}

// SuggestRequest is one query of a suggestion batch.
type SuggestRequest struct {
	Dim  int    `json:"dim"`
	Path string `json:"path"`
	Q    string `json:"q"`
	K    int    `json:"k"`
}

// SuggestResult is one answer of a suggestion batch. Err is per-item:
// one malformed query never fails its batch siblings.
type SuggestResult struct {
	Suggestions []lakenav.ScoredNode
	Err         error
}

// SearchRequest is one query of a search batch.
type SearchRequest struct {
	Q string `json:"q"`
	K int    `json:"k"`
}

// SearchResult is one answer of a search batch.
type SearchResult struct {
	Tables []string
}

// SuggestBatch answers every request, fanning the batch across a
// GOMAXPROCS-sized worker pool. Results are positionally parallel to
// reqs and bit-identical to issuing each request alone, for any pool
// size: every worker writes only the result slots it owns.
func (s *Snapshot) SuggestBatch(reqs []SuggestRequest) []SuggestResult {
	start := time.Now()
	out := make([]SuggestResult, len(reqs))
	core.ParallelFor(len(reqs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sugg, err := s.Suggest(reqs[i].Dim, reqs[i].Path, reqs[i].Q, reqs[i].K)
			out[i] = SuggestResult{Suggestions: sugg, Err: err}
		}
	})
	noteBatch(len(reqs), start)
	return out
}

// SearchBatch answers every keyword query, fanning the batch across the
// same pool.
func (s *Snapshot) SearchBatch(reqs []SearchRequest) []SearchResult {
	start := time.Now()
	out := make([]SearchResult, len(reqs))
	core.ParallelFor(len(reqs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = SearchResult{Tables: s.Search(reqs[i].Q, reqs[i].K)}
		}
	})
	noteBatch(len(reqs), start)
	return out
}

func noteBatch(n int, start time.Time) {
	metricBatchCalls.Inc()
	metricBatchQueries.Add(uint64(n))
	metricBatchSize.Observe(float64(n))
	metricBatchLatency.Observe(time.Since(start).Seconds())
}

func truncateNodes(v []lakenav.ScoredNode, k int) []lakenav.ScoredNode {
	if k > 0 && k < len(v) {
		return v[:k]
	}
	return v
}

func truncateTables(v []lakenav.TableDiscovery, k int) []lakenav.TableDiscovery {
	if k > 0 && k < len(v) {
		return v[:k]
	}
	return v
}
