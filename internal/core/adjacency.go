package core

import "fmt"

// adjSnapshot is a flattened CSR-style view of the organization's
// adjacency: each state's children (and parents) stored as one
// contiguous int32 run inside a shared slice, indexed by an offset
// table. The navigation kernels sweep these runs instead of chasing
// []*State pointer lists, so a transition sweep touches two small
// arrays (offsets + ids) plus the topic arena — all contiguous.
//
// The snapshot is a cache owned by Org, rebuilt lazily by adjacency()
// and dropped by invalidate() alongside topo/levels. Like Topo it must
// be warmed serially before concurrent readers fork: the serve layer
// and evaluator construction warm Topo, which warms this, and
// Reevaluate calls adjacency() itself.
//
// A snapshot is valid until the next structural change of its Org.
// invalidate() keeps the dropped snapshot as spare storage and the
// next adjacency() rebuilds into its arrays, so the search loop's
// apply → sweep → undo cycle allocates nothing once the arrays have
// grown to the organization's size. Every reader therefore fetches the
// snapshot after the change it sweeps and holds it for one call, never
// across an operation or an Undo. Between structural changes the
// snapshot is read-only, which is what //lakelint:immutable enforces:
// adjacency() is its only constructor.
//
//lakelint:immutable
type adjSnapshot struct {
	childStart  []int32 // len(States)+1 offsets into children
	children    []int32
	parentStart []int32 // len(States)+1 offsets into parents
	parents     []int32
	kinds       []uint8 // Kind per state, for branch-free sweep filters
	maxChildren int     // widest fan-out, sizes transition scratch
}

// childrenOf returns state id's children run. The slice aliases the
// snapshot and must not be modified.
func (a *adjSnapshot) childrenOf(id StateID) []int32 {
	return a.children[a.childStart[id]:a.childStart[id+1]]
}

// parentsOf returns state id's parents run.
func (a *adjSnapshot) parentsOf(id StateID) []int32 {
	return a.parents[a.parentStart[id]:a.parentStart[id+1]]
}

// adjacency returns the cached CSR snapshot, rebuilding it if a
// structural change dropped it. The rebuild reuses the spare
// snapshot's arrays and allocates only when the organization has
// outgrown them.
func (o *Org) adjacency() *adjSnapshot {
	if o.adj != nil {
		return o.adj
	}
	a := o.spareAdj
	o.spareAdj = nil
	if a == nil {
		a = &adjSnapshot{}
	}
	n := len(o.States)
	nc, np := 0, 0
	for _, s := range o.States {
		nc += len(s.Children)
		np += len(s.Parents)
	}
	a.childStart = resized(a.childStart, n+1)
	a.parentStart = resized(a.parentStart, n+1)
	a.children = resized(a.children, nc)
	a.parents = resized(a.parents, np)
	a.kinds = resized(a.kinds, n)
	a.maxChildren = 0
	ci, pi := int32(0), int32(0)
	for i, s := range o.States {
		a.kinds[i] = uint8(s.Kind)
		for _, c := range s.Children {
			a.children[ci] = int32(c)
			ci++
		}
		for _, p := range s.Parents {
			a.parents[pi] = int32(p)
			pi++
		}
		a.childStart[i+1] = ci
		a.parentStart[i+1] = pi
		if len(s.Children) > a.maxChildren {
			a.maxChildren = len(s.Children)
		}
	}
	o.adj = a
	return a
}

// resized returns s cut to length n, reallocated only when its
// capacity falls short. The contents are not preserved.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Topo returns a topological order over all live states reachable from
// the root (parents before children), computing and caching it on
// demand. It panics if a cycle is detected — operations are responsible
// for never creating one.
//
// The order is the same as Kahn's algorithm seeded at the root with a
// FIFO queue and children visited in insertion order; it is fully
// deterministic and, in particular, identical to the pre-arena
// map-based implementation.
func (o *Org) Topo() []StateID {
	if o.topo != nil {
		return o.topo
	}
	a := o.adjacency()
	n := len(o.States)
	// Reachability from the root.
	reach := make([]bool, n)
	reached := 0
	stack := []StateID{o.Root}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if reach[id] {
			continue
		}
		reach[id] = true
		reached++
		for _, c := range a.childrenOf(id) {
			if !reach[c] {
				stack = append(stack, StateID(c))
			}
		}
	}
	indeg := make([]int32, n)
	for id := 0; id < n; id++ {
		if !reach[id] {
			continue
		}
		for _, c := range a.childrenOf(StateID(id)) {
			indeg[c]++
		}
	}
	order := make([]StateID, 0, reached)
	queue := make([]StateID, 0, reached)
	if indeg[o.Root] == 0 {
		queue = append(queue, o.Root)
	}
	for head := 0; head < len(queue); head++ {
		id := queue[head]
		order = append(order, id)
		for _, c := range a.childrenOf(id) {
			indeg[c]--
			if indeg[c] == 0 {
				queue = append(queue, StateID(c))
			}
		}
	}
	if len(order) != reached {
		panic(fmt.Sprintf("core: cycle detected (%d of %d states ordered)", len(order), reached))
	}
	o.topo = order
	return order
}
