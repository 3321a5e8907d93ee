// Package vector provides the dense-vector primitives used throughout
// lakenav: dot products, cosine similarity, norms, and running
// (incremental) means.
//
// Topic vectors in the navigation model (Nargesian et al., SIGMOD 2020,
// Sec 3.1) are sample means of word-embedding populations, and every
// similarity in the model is a cosine similarity between such means, so
// these few operations are the numerical core of the whole system.
package vector

import (
	"fmt"
	"math"
)

// Vector is a dense vector of float64 components.
type Vector []float64

// New returns a zero vector with dim components.
func New(dim int) Vector {
	return make(Vector, dim)
}

// Clone returns a copy of v that shares no storage with it.
func (v Vector) Clone() Vector {
	out := make(Vector, len(v))
	copy(out, v)
	return out
}

// Dot returns the inner product of a and b.
// It panics if the dimensions differ.
func Dot(a, b Vector) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: Dot dimension mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, x := range a {
		s += x * b[i]
	}
	return s
}

// Norm returns the Euclidean (L2) norm of v.
func Norm(v Vector) float64 {
	return math.Sqrt(Dot(v, v))
}

// Cosine returns the cosine similarity between a and b in [-1, 1].
// If either vector has zero norm, Cosine returns 0: a state with no
// embedded values carries no topic signal, which the navigation model
// treats as maximal dissimilarity from every query.
func Cosine(a, b Vector) float64 {
	return CosineNorms(a, b, Norm(a), Norm(b))
}

// CosineNorms is the similarity kernel behind Cosine: the cosine of a
// and b given their precomputed L2 norms. Callers that evaluate many
// similarities against the same vectors (the navigation model computes
// O(queries × states × children) of them per search iteration) cache
// the norms once and pay a single Dot per similarity instead of the
// three Cosine performs. It is bit-for-bit identical to Cosine when
// na == Norm(a) and nb == Norm(b) — same operations in the same order —
// which the kernel-equivalence property tests pin down.
func CosineNorms(a, b Vector, na, nb float64) float64 {
	if na == 0 || nb == 0 {
		return 0
	}
	c := Dot(a, b) / (na * nb)
	// Guard against floating-point drift outside [-1, 1].
	if c > 1 {
		return 1
	}
	if c < -1 {
		return -1
	}
	return c
}

// Scale returns v scaled by k as a new vector.
func Scale(v Vector, k float64) Vector {
	out := make(Vector, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

// AddInPlace adds b into a component-wise.
func AddInPlace(a, b Vector) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("vector: AddInPlace dimension mismatch %d != %d", len(a), len(b)))
	}
	for i := range a {
		a[i] += b[i]
	}
}

// Normalize returns v scaled to unit norm. The zero vector is returned
// unchanged (as a copy).
func Normalize(v Vector) Vector {
	n := Norm(v)
	if n == 0 {
		return v.Clone()
	}
	return Scale(v, 1/n)
}

// Equal reports whether a and b have identical dimensions and all
// components within tol of each other.
//
//lakelint:ignore deadexport -- the tolerance comparison the vector, embedding and core tests share
func Equal(a, b Vector, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if math.Abs(x-b[i]) > tol {
			return false
		}
	}
	return true
}
