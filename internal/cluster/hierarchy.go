// Package cluster implements the clustering substrates the organization
// algorithm depends on: agglomerative hierarchical clustering (the
// paper's initial organization, Sec 3.3) and k-medoids partitioning (the
// paper's multi-dimensional grouping, Sec 2.5 and 4.3.4). Both operate
// on cosine geometry over topic vectors.
package cluster

import (
	"fmt"
	"math"
	"runtime"

	"lakenav/internal/parallel"
	"lakenav/vector"
)

// Linkage selects how inter-cluster distance is updated after a merge.
type Linkage int

const (
	// Average linkage (UPGMA): mean pairwise distance. The default for
	// building initial organizations.
	Average Linkage = iota
	// Complete linkage: maximum pairwise distance.
	Complete
	// Single linkage: minimum pairwise distance.
	Single
)

// String returns the linkage name.
func (l Linkage) String() string {
	switch l {
	case Average:
		return "average"
	case Complete:
		return "complete"
	case Single:
		return "single"
	}
	return fmt.Sprintf("Linkage(%d)", int(l))
}

// Merge records one agglomeration step: clusters A and B (node ids)
// merged at the given distance into a new node.
type Merge struct {
	A, B int
	Dist float64
}

// Dendrogram is the result of agglomerative clustering over n items.
// Node ids 0..n-1 are the input items (leaves); merge i creates node
// n+i. The final merge creates the root, node 2n-2.
type Dendrogram struct {
	N      int
	Merges []Merge
}

// Root returns the node id of the dendrogram root. A single-item
// dendrogram has root 0 and no merges.
func (d *Dendrogram) Root() int {
	if d.N == 1 {
		return 0
	}
	return d.N + len(d.Merges) - 1
}

// CosineDistances builds the condensed pairwise distance matrix
// 1 − cosine(vi, vj) for the given vectors. Each vector's norm is
// computed once, so a pair costs one Dot (vector.CosineNorms, bit for
// bit what vector.Cosine returns). Above cosineForkFloor pairs per
// worker the rows are filled on up to GOMAXPROCS goroutines; every
// cell is computed the same way whichever goroutine fills it, so the
// matrix does not depend on the worker count.
func CosineDistances(vs []vector.Vector) *DistMatrix {
	n := len(vs)
	m := NewDistMatrix(n)
	norms := make([]float64, n)
	for i, v := range vs {
		norms[i] = vector.Norm(v)
	}
	row := func(i int) {
		vi, ni := vs[i], norms[i]
		cells := m.data[m.rowStart(i) : m.rowStart(i)+n-1-i]
		for k := range cells {
			j := i + 1 + k
			cells[k] = 1 - vector.CosineNorms(vi, vs[j], ni, norms[j])
		}
	}
	// Task k fills row k (n−1−k pairs) and row n−1−k (k pairs): every
	// task is n−1 pairs, so contiguous chunks of tasks are balanced.
	// Each task writes only its own rows' cells.
	workers := parallel.Workers(len(m.data), cosineForkFloor, runtime.GOMAXPROCS(0))
	parallel.For((n+1)/2, workers, func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			row(k)
			if k != n-1-k {
				row(n - 1 - k)
			}
		}
	})
	return m
}

// cosineForkFloor is the number of pairs each goroutine of
// CosineDistances must have to fill before the matrix forks. The
// k-medoids grouping of a lake's tags (hundreds of tags, 10⁵ pairs)
// forks; the per-dimension initial clusterings, which already run
// side by side in the dimension pool, stay serial.
const cosineForkFloor = 1 << 14

// DistMatrix is a symmetric n×n distance matrix with zero diagonal,
// stored condensed.
type DistMatrix struct {
	n    int
	data []float64
}

// NewDistMatrix returns an all-zero distance matrix over n items.
func NewDistMatrix(n int) *DistMatrix {
	return &DistMatrix{n: n, data: make([]float64, n*(n-1)/2)}
}

// N returns the number of items.
func (m *DistMatrix) N() int { return m.n }

func (m *DistMatrix) idx(i, j int) int {
	if i == j {
		panic("cluster: DistMatrix diagonal access")
	}
	if i > j {
		i, j = j, i
	}
	// Row-major condensed upper triangle.
	return m.rowStart(i) + (j - i - 1)
}

// rowStart returns the index of cell (i, i+1), where row i's n−1−i
// cells start.
func (m *DistMatrix) rowStart(i int) int {
	return i * (2*m.n - i - 1) / 2
}

// Get returns the distance between items i and j (0 when i == j).
func (m *DistMatrix) Get(i, j int) float64 {
	if i == j {
		return 0
	}
	return m.data[m.idx(i, j)]
}

// Set stores the distance between items i and j. i must differ from j.
func (m *DistMatrix) Set(i, j int, d float64) {
	m.data[m.idx(i, j)] = d
}

// Agglomerative performs hierarchical clustering over the items of the
// distance matrix using the Lance-Williams update for the chosen
// linkage. It consumes dist (the matrix is modified in place). It
// panics if the matrix has no items.
func Agglomerative(dist *DistMatrix, linkage Linkage) *Dendrogram {
	n := dist.N()
	if n == 0 {
		panic("cluster: Agglomerative over zero items")
	}
	d := &Dendrogram{N: n}
	if n == 1 {
		return d
	}

	// active[i] is the current node id of slot i, or -1 when merged away.
	active := make([]int, n)
	size := make([]float64, n)
	for i := range active {
		active[i] = i
		size[i] = 1
	}
	remaining := n

	for remaining > 1 {
		// Find the closest active pair.
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < n; i++ {
			if active[i] < 0 {
				continue
			}
			for j := i + 1; j < n; j++ {
				if active[j] < 0 {
					continue
				}
				if dd := dist.Get(i, j); dd < best {
					best, bi, bj = dd, i, j
				}
			}
		}
		newID := d.N + len(d.Merges)
		d.Merges = append(d.Merges, Merge{A: active[bi], B: active[bj], Dist: best})

		// Lance-Williams update of slot bi to represent the merged
		// cluster; slot bj is retired.
		si, sj := size[bi], size[bj]
		for k := 0; k < n; k++ {
			if k == bi || k == bj || active[k] < 0 {
				continue
			}
			dik, djk := dist.Get(bi, k), dist.Get(bj, k)
			var nd float64
			switch linkage {
			case Average:
				nd = (si*dik + sj*djk) / (si + sj)
			case Complete:
				nd = math.Max(dik, djk)
			case Single:
				nd = math.Min(dik, djk)
			default:
				panic(fmt.Sprintf("cluster: unknown linkage %d", linkage))
			}
			dist.Set(bi, k, nd)
		}
		active[bi] = newID
		size[bi] = si + sj
		active[bj] = -1
		remaining--
	}
	return d
}

// AgglomerativeVectors is a convenience wrapper clustering vectors under
// cosine distance.
func AgglomerativeVectors(vs []vector.Vector, linkage Linkage) *Dendrogram {
	return Agglomerative(CosineDistances(vs), linkage)
}
