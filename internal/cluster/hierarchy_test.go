package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"lakenav/vector"
)

func TestDistMatrix(t *testing.T) {
	m := NewDistMatrix(4)
	m.Set(0, 3, 1.5)
	m.Set(2, 1, 0.5)
	if got := m.Get(3, 0); got != 1.5 {
		t.Errorf("symmetric Get = %v", got)
	}
	if got := m.Get(1, 2); got != 0.5 {
		t.Errorf("Get = %v", got)
	}
	if got := m.Get(2, 2); got != 0 {
		t.Errorf("diagonal = %v", got)
	}
	if m.N() != 4 {
		t.Errorf("N = %d", m.N())
	}
}

func TestDistMatrixDiagonalSetPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set on diagonal did not panic")
		}
	}()
	NewDistMatrix(2).Set(1, 1, 1)
}

func TestCosineDistances(t *testing.T) {
	vs := []vector.Vector{{1, 0}, {0, 1}, {1, 0}}
	m := CosineDistances(vs)
	if got := m.Get(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("orthogonal distance = %v, want 1", got)
	}
	if got := m.Get(0, 2); math.Abs(got) > 1e-12 {
		t.Errorf("identical distance = %v, want 0", got)
	}
}

// TestCosineDistancesMatchesNaive checks the one-Dot, row-parallel
// matrix against 1 − vector.Cosine bit for bit, for sizes that stay
// serial and sizes that fork (400 items is 79,800 pairs, enough for
// four goroutines), under several GOMAXPROCS settings. A zero vector
// covers the zero-norm branch.
func TestCosineDistancesMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, procs := range []int{1, 2, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for _, n := range []int{0, 1, 2, 3, 8, 301, 400} {
				vs := make([]vector.Vector, n)
				for i := range vs {
					vs[i] = vector.New(6)
					if i == 1 {
						continue
					}
					for k := range vs[i] {
						vs[i][k] = rng.NormFloat64()
					}
				}
				m := CosineDistances(vs)
				if m.N() != n || len(m.data) != n*(n-1)/2 {
					t.Fatalf("GOMAXPROCS %d n %d: matrix over %d items with %d cells", procs, n, m.N(), len(m.data))
				}
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						want := 1 - vector.Cosine(vs[i], vs[j])
						if got := m.Get(i, j); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("GOMAXPROCS %d n %d: d(%d,%d) = %v, naive %v", procs, n, i, j, got, want)
						}
					}
				}
			}
		}()
	}
}

// fourPointMatrix builds two tight pairs far apart:
// items 0,1 close; items 2,3 close; cross distances large.
func fourPointMatrix() *DistMatrix {
	m := NewDistMatrix(4)
	m.Set(0, 1, 0.1)
	m.Set(2, 3, 0.2)
	for _, p := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		m.Set(p[0], p[1], 1.0)
	}
	return m
}

func TestAgglomerativeStructure(t *testing.T) {
	for _, linkage := range []Linkage{Average, Complete, Single} {
		t.Run(linkage.String(), func(t *testing.T) {
			d := Agglomerative(fourPointMatrix(), linkage)
			if d.N != 4 || len(d.Merges) != 3 {
				t.Fatalf("N=%d merges=%d", d.N, len(d.Merges))
			}
			// First two merges must join the tight pairs.
			first := d.Merges[0]
			if !(first.A == 0 && first.B == 1) && !(first.A == 1 && first.B == 0) {
				t.Errorf("first merge = %+v, want {0 1}", first)
			}
			second := d.Merges[1]
			if !(second.A == 2 && second.B == 3) && !(second.A == 3 && second.B == 2) {
				t.Errorf("second merge = %+v, want {2 3}", second)
			}
			// Root covers all leaves.
			leaves := d.leaves(d.Root())
			sort.Ints(leaves)
			if len(leaves) != 4 || leaves[0] != 0 || leaves[3] != 3 {
				t.Errorf("root leaves = %v", leaves)
			}
		})
	}
}

func TestAgglomerativeLinkageDistances(t *testing.T) {
	// Average vs Complete vs Single differ in the final merge distance.
	dAvg := Agglomerative(fourPointMatrix(), Average)
	dMax := Agglomerative(fourPointMatrix(), Complete)
	dMin := Agglomerative(fourPointMatrix(), Single)
	last := func(d *Dendrogram) float64 { return d.Merges[len(d.Merges)-1].Dist }
	if !(last(dMin) <= last(dAvg) && last(dAvg) <= last(dMax)) {
		t.Errorf("linkage ordering violated: single=%v avg=%v complete=%v",
			last(dMin), last(dAvg), last(dMax))
	}
}

func TestAgglomerativeSingleItem(t *testing.T) {
	d := Agglomerative(NewDistMatrix(1), Average)
	if d.Root() != 0 || !d.isLeaf(0) {
		t.Errorf("single item dendrogram: root=%d", d.Root())
	}
	if got := d.leaves(0); len(got) != 1 || got[0] != 0 {
		t.Errorf("Leaves = %v", got)
	}
}

func TestAgglomerativeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty clustering did not panic")
		}
	}()
	Agglomerative(NewDistMatrix(0), Average)
}

// Property-style test: on random data the root covers each item exactly
// once and every merge partitions its leaves between its two children.
func TestDendrogramPartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.Intn(30)
		vs := make([]vector.Vector, n)
		for i := range vs {
			v := vector.New(6)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			vs[i] = v
		}
		d := AgglomerativeVectors(vs, Average)
		seen := make(map[int]int)
		for _, item := range d.leaves(d.Root()) {
			seen[item]++
		}
		if len(seen) != n {
			t.Fatalf("root covers %d/%d items", len(seen), n)
		}
		for item, cnt := range seen {
			if cnt != 1 {
				t.Fatalf("root lists item %d %d times", item, cnt)
			}
		}
		for node := n; node <= d.Root(); node++ {
			a, b := d.children(node)
			owner := make(map[int]int)
			for _, item := range d.leaves(a) {
				owner[item]++
			}
			for _, item := range d.leaves(b) {
				owner[item]++
			}
			if len(owner) != len(d.leaves(node)) {
				t.Fatalf("merge %d: children cover %d of its %d items", node, len(owner), len(d.leaves(node)))
			}
			for item, cnt := range owner {
				if cnt != 1 {
					t.Fatalf("merge %d: item %d in both children", node, item)
				}
			}
		}
	}
}

func TestLinkageString(t *testing.T) {
	if Average.String() != "average" || Complete.String() != "complete" || Single.String() != "single" {
		t.Error("linkage names wrong")
	}
	if Linkage(99).String() == "" {
		t.Error("unknown linkage empty")
	}
}

// leaves returns the input items under node id in discovery order.
func (d *Dendrogram) leaves(id int) []int {
	var out []int
	stack := []int{id}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if d.isLeaf(n) {
			out = append(out, n)
			continue
		}
		a, b := d.children(n)
		stack = append(stack, b, a)
	}
	return out
}

// children returns the two children of internal node id, which must be
// at least N.
func (d *Dendrogram) children(id int) (int, int) {
	m := d.Merges[id-d.N]
	return m.A, m.B
}

// isLeaf reports whether id is an input item.
func (d *Dendrogram) isLeaf(id int) bool { return id < d.N }
