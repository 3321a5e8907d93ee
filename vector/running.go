package vector

import "fmt"

// Running accumulates a sum of vectors and a count so that the sample
// mean of a growing (or merging) population can be maintained in O(dim)
// per update. Organization states keep a Running accumulator for their
// domains: when ADD_PARENT unions a child's attributes into an ancestor,
// the ancestor's topic vector is updated by merging accumulators instead
// of re-averaging every value embedding (Sec 3.4 scaling).
//
// The zero Running is NOT ready for use; construct with NewRunning.
type Running struct {
	sum   Vector
	count int
}

// NewRunning returns an empty accumulator for dim-dimensional vectors.
func NewRunning(dim int) *Running {
	return &Running{sum: New(dim)}
}

// Add includes v in the population.
func (r *Running) Add(v Vector) {
	if len(v) != len(r.sum) {
		panic(fmt.Sprintf("vector: Running.Add dimension mismatch %d != %d", len(v), len(r.sum)))
	}
	AddInPlace(r.sum, v)
	r.count++
}

// AddWeighted includes a pre-aggregated population with the given
// component sum and count. count must be non-negative.
func (r *Running) AddWeighted(sum Vector, count int) {
	if count < 0 {
		panic("vector: Running.AddWeighted negative count")
	}
	if len(sum) != len(r.sum) {
		panic(fmt.Sprintf("vector: Running.AddWeighted dimension mismatch %d != %d", len(sum), len(r.sum)))
	}
	AddInPlace(r.sum, sum)
	r.count += count
}

// RemoveWeighted removes a pre-aggregated population previously added
// with AddWeighted. It panics if more vectors would be removed than are
// present. Organization states use this to shrink their topic
// accumulators when DELETE_PARENT drops attributes from a domain.
func (r *Running) RemoveWeighted(sum Vector, count int) {
	if count < 0 {
		panic("vector: Running.RemoveWeighted negative count")
	}
	if count > r.count {
		panic(fmt.Sprintf("vector: Running.RemoveWeighted count %d exceeds population %d", count, r.count))
	}
	if len(sum) != len(r.sum) {
		panic(fmt.Sprintf("vector: Running.RemoveWeighted dimension mismatch %d != %d", len(sum), len(r.sum)))
	}
	for i := range r.sum {
		r.sum[i] -= sum[i]
	}
	r.count -= count
}

// Count returns the number of vectors in the population.
func (r *Running) Count() int { return r.count }

// Sum returns a copy of the component-wise sum of the population.
func (r *Running) Sum() Vector { return r.sum.Clone() }

// Mean returns the sample mean of the population and true, or a zero
// vector and false when the population is empty.
func (r *Running) Mean() (Vector, bool) {
	if r.count == 0 {
		return New(len(r.sum)), false
	}
	return Scale(r.sum, 1/float64(r.count)), true
}

// MeanInto writes the sample mean of the population into dst and
// reports whether the population is non-empty; an empty population
// zeroes dst. It multiplies by 1/count exactly as Mean does, so the two
// agree bit for bit. dst must have the accumulator's dimension.
func (r *Running) MeanInto(dst Vector) bool {
	if len(dst) != len(r.sum) {
		panic(fmt.Sprintf("vector: Running.MeanInto dimension mismatch %d != %d", len(dst), len(r.sum)))
	}
	if r.count == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return false
	}
	k := 1 / float64(r.count)
	for i, x := range r.sum {
		dst[i] = x * k
	}
	return true
}
