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
// structural change dropped it.
func (o *Org) adjacency() *adjSnapshot {
	if o.adj != nil {
		return o.adj
	}
	n := len(o.States)
	a := &adjSnapshot{
		childStart:  make([]int32, n+1),
		parentStart: make([]int32, n+1),
		kinds:       make([]uint8, n),
	}
	nc, np := 0, 0
	for _, s := range o.States {
		nc += len(s.Children)
		np += len(s.Parents)
	}
	a.children = make([]int32, 0, nc)
	a.parents = make([]int32, 0, np)
	for i, s := range o.States {
		a.kinds[i] = uint8(s.Kind)
		for _, c := range s.Children {
			a.children = append(a.children, int32(c))
		}
		for _, p := range s.Parents {
			a.parents = append(a.parents, int32(p))
		}
		a.childStart[i+1] = int32(len(a.children))
		a.parentStart[i+1] = int32(len(a.parents))
		if len(s.Children) > a.maxChildren {
			a.maxChildren = len(s.Children)
		}
	}
	o.adj = a
	return a
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
