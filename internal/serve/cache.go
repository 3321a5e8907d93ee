package serve

import (
	"container/list"
	"sync"

	"lakenav/vector"
)

// resultKind discriminates the result families that share one cache.
type resultKind uint8

const (
	kindSuggest resultKind = iota
	kindDiscover
	kindSearch
)

// cacheKey is the comparable lookup key. Topic-keyed kinds (suggest,
// discover) hash the quantized query topic into topicHash and carry the
// navigation path; search keys on the raw query string and result
// count. The generation is deliberately NOT part of the key: a new
// snapshot's writes overwrite the old generation's entries in place, so
// stale results never linger and never consume capacity.
type cacheKey struct {
	kind      resultKind
	dim       int
	path      string // navigation path (suggest) or query string (search)
	k         int    // search result count; 0 for topic-keyed kinds
	topicHash uint64 // FNV-1a over the quantized topic bits; 0 for search
}

// entry is one cached result, stamped with the generation of the
// snapshot that computed it and, for topic-keyed kinds, the exact
// quantized topic — the guard that turns a 64-bit hash collision into a
// cache miss instead of a wrong answer.
type entry struct {
	key   cacheKey
	gen   uint64
	topic vector.Vector
	val   any
}

// Cache is a generation-stamped LRU shared across serving snapshots.
//
// The navserver owns one Cache for its whole lifetime (a fixed memory
// budget) and wraps each organization it serves in a fresh Snapshot
// carrying a new generation number. Entries are stamped with the
// writing snapshot's generation; a lookup from a newer generation
// treats any older entry as invalid, removes it, and reports a miss.
// Swapping the served organization therefore invalidates the cache
// wholesale in O(1) — no walk, no flush — which is what makes the
// atomic org swap safe to run while sessions are mid-flight.
type Cache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used; values are *entry
	m   map[cacheKey]*list.Element
}

// DefaultCacheSize is the entry capacity used when a caller passes a
// non-positive size.
const DefaultCacheSize = 4096

// NewCache returns an empty cache holding at most capacity entries
// (non-positive selects DefaultCacheSize).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheSize
	}
	return &Cache{cap: capacity, ll: list.New(), m: make(map[cacheKey]*list.Element)}
}

// get returns the value cached under key for the given generation. An
// entry from another generation is removed and reported as a miss; a
// topicHash collision (stored topic differs from the request topic) is
// a miss that leaves the entry in place for its own key.
//
//lakelint:hotpath
func (c *Cache) get(gen uint64, key cacheKey, topic vector.Vector) (any, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		metricCacheMisses.Inc()
		return nil, false
	}
	e := el.Value.(*entry)
	if e.gen != gen {
		c.remove(el)
		metricCacheInvalidations.Inc()
		metricCacheMisses.Inc()
		return nil, false
	}
	if !topicsEqual(e.topic, topic) {
		metricCacheMisses.Inc()
		return nil, false
	}
	c.ll.MoveToFront(el)
	metricCacheHits.Inc()
	return e.val, true
}

// put stores val under key for the given generation, evicting the
// least-recently-used entry when over capacity.
func (c *Cache) put(gen uint64, key cacheKey, topic vector.Vector, val any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		e := el.Value.(*entry)
		e.gen, e.topic, e.val = gen, topic, val
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&entry{key: key, gen: gen, topic: topic, val: val})
	c.m[key] = el
	for len(c.m) > c.cap {
		c.remove(c.ll.Back())
		metricCacheEvictions.Inc()
	}
	metricCacheEntries.Set(int64(len(c.m)))
}

// remove drops one element; callers hold the lock.
func (c *Cache) remove(el *list.Element) {
	c.ll.Remove(el)
	delete(c.m, el.Value.(*entry).key)
	metricCacheEntries.Set(int64(len(c.m)))
}

// topicsEqual compares quantized topics for exact (bit-level) equality;
// two nil topics (search entries) are equal.
func topicsEqual(a, b vector.Vector) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
