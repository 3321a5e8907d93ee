package serve

import (
	"testing"

	"lakenav/vector"
)

func tkey(path string) cacheKey {
	return cacheKey{kind: kindSuggest, dim: 0, path: path, topicHash: 1}
}

func TestCacheHitMissAndLRUEviction(t *testing.T) {
	c := NewCache(2)
	topic := vector.Vector{1, 0}

	if _, ok := c.get(1, tkey("a"), topic); ok {
		t.Fatal("hit on empty cache")
	}
	c.put(1, tkey("a"), topic, "va")
	c.put(1, tkey("b"), topic, "vb")
	if v, ok := c.get(1, tkey("a"), topic); !ok || v != "va" {
		t.Fatalf("get a = %v, %v", v, ok)
	}
	// "a" is now most recently used; inserting "c" must evict "b".
	c.put(1, tkey("c"), topic, "vc")
	if len(c.m) != 2 {
		t.Fatalf("Len = %d, want 2", len(c.m))
	}
	if _, ok := c.get(1, tkey("b"), topic); ok {
		t.Error("b survived eviction; LRU order wrong")
	}
	if _, ok := c.get(1, tkey("a"), topic); !ok {
		t.Error("a evicted despite recent use")
	}
	if _, ok := c.get(1, tkey("c"), topic); !ok {
		t.Error("c missing after insert")
	}
}

func TestCacheGenerationInvalidation(t *testing.T) {
	c := NewCache(8)
	topic := vector.Vector{0.5}
	c.put(1, tkey("a"), topic, "old")

	// A newer generation sees the stale entry as a miss and removes it.
	if _, ok := c.get(2, tkey("a"), topic); ok {
		t.Fatal("stale-generation entry served")
	}
	if len(c.m) != 0 {
		t.Fatalf("stale entry not removed; Len = %d", len(c.m))
	}

	// A put from the new generation reclaims the key.
	c.put(2, tkey("a"), topic, "new")
	if v, ok := c.get(2, tkey("a"), topic); !ok || v != "new" {
		t.Fatalf("get after regen = %v, %v", v, ok)
	}
	// And the old generation can no longer read it either.
	if _, ok := c.get(1, tkey("a"), topic); ok {
		t.Error("old generation read a newer entry")
	}
}

func TestCachePutOverwritesInPlace(t *testing.T) {
	c := NewCache(8)
	topic := vector.Vector{0.25}
	c.put(1, tkey("a"), topic, "v1")
	c.put(2, tkey("a"), topic, "v2")
	if len(c.m) != 1 {
		t.Fatalf("Len = %d, want 1 (in-place overwrite)", len(c.m))
	}
	if v, ok := c.get(2, tkey("a"), topic); !ok || v != "v2" {
		t.Fatalf("get = %v, %v", v, ok)
	}
}

func TestCacheCollisionGuard(t *testing.T) {
	c := NewCache(8)
	t1 := vector.Vector{1, 0}
	t2 := vector.Vector{0, 1} // same key (manufactured), different topic
	c.put(1, tkey("a"), t1, "v1")
	if _, ok := c.get(1, tkey("a"), t2); ok {
		t.Fatal("hash collision served a wrong-topic result")
	}
	// The original entry must survive a collision miss.
	if v, ok := c.get(1, tkey("a"), t1); !ok || v != "v1" {
		t.Fatalf("original entry lost after collision miss: %v, %v", v, ok)
	}
}

func TestCacheDefaultCapacity(t *testing.T) {
	c := NewCache(0)
	if c.cap != DefaultCacheSize {
		t.Fatalf("cap = %d, want %d", c.cap, DefaultCacheSize)
	}
	c = NewCache(-3)
	if c.cap != DefaultCacheSize {
		t.Fatalf("cap = %d, want %d", c.cap, DefaultCacheSize)
	}
}

func TestTopicsEqual(t *testing.T) {
	if !topicsEqual(nil, nil) {
		t.Error("nil topics must be equal (search entries)")
	}
	if topicsEqual(vector.Vector{1}, vector.Vector{1, 2}) {
		t.Error("length mismatch reported equal")
	}
	if topicsEqual(vector.Vector{1, 2}, vector.Vector{1, 3}) {
		t.Error("value mismatch reported equal")
	}
	if !topicsEqual(vector.Vector{1, 2}, vector.Vector{1, 2}) {
		t.Error("equal topics reported unequal")
	}
}
