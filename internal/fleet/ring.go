package fleet

import (
	"sort"
	"strconv"
)

// DefaultVNodes is the virtual-node count per shard when the shard map
// does not set one. 64 points per shard keeps the expected placement
// imbalance under a few percent for single-digit fleets while the ring
// stays small enough to rebuild on every map swap.
const DefaultVNodes = 64

// Ring is a consistent-hash ring over shard ids. It is immutable once
// built: a map change builds a fresh ring, and the coordinator swaps it
// atomically. Construction is deterministic — shard ids are sorted
// before hashing and ties break on the id — so every coordinator
// (and every test) derives the identical ring from the same map,
// regardless of map iteration order.
type Ring struct {
	points []ringPoint
	vnodes int
	ids    []string
}

type ringPoint struct {
	hash  uint64
	shard string
}

// NewRing builds the ring from shard ids with vnodes virtual nodes per
// shard (<=0 selects DefaultVNodes). The input slice is not retained.
func NewRing(ids []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	sorted := append([]string(nil), ids...)
	sort.Strings(sorted)
	r := &Ring{
		points: make([]ringPoint, 0, len(sorted)*vnodes),
		vnodes: vnodes,
		ids:    sorted,
	}
	for _, id := range sorted {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:  hash64(id + "#" + strconv.Itoa(v)),
				shard: id,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].shard < r.points[j].shard
	})
	return r
}

// Place maps a key to its shard id: the first ring point at or after
// the key's hash, wrapping at the top. Empty rings place nowhere.
func (r *Ring) Place(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].shard
}

// NavKey is the placement key for navigation traffic: every query
// against one (lake, dimension) pair lands on one shard, so that
// shard's serve-layer LRU owns the whole dimension's working set.
func NavKey(lake string, dim int) string {
	return lake + "\x00d\x00" + strconv.Itoa(dim)
}

// SearchKey is the placement key for keyword search: per-query
// affinity spreads a lake's search load across shards while keeping
// repeats of the same query on the same (cache-warm) shard.
func SearchKey(lake, q string) string {
	return lake + "\x00q\x00" + q
}

// hash64 is FNV-1a with a splitmix64 finalizer, inlined so ring
// construction and placement never allocate a hasher. The finalizer is
// load-bearing: raw FNV-1a avalanches poorly in its high bits on short
// keys, and ring placement compares full 64-bit values, so without it
// a 4-shard/64-vnode ring measures >4× load skew; mixed, the skew is a
// few percent. The function is pure and stable across processes —
// placement must agree between coordinators and across restarts.
func hash64(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}
