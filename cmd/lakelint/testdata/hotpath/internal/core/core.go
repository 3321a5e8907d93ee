// Package core replicates the repository's internal/core package path
// suffix, so the required-annotation rule fires inside a fixture: the
// evaluator kernels must carry //lakelint:hotpath, and deleting the
// annotation is itself a finding.
package core

// Org mirrors the shape of the evaluator's organization type.
//
//lakelint:ignore deadexport -- fixture replica; only its methods matter
type Org struct{ n int }

// transitionsInto is on the required hot-path list but does not carry
// the annotation: the gate must fail.
func (o *Org) transitionsInto(dst []float64) []float64 { // want hotpath "is a pinned zero-alloc hot path"
	for i := range dst {
		dst[i] = float64(o.n)
	}
	return dst
}

// reachProbsInto carries the required annotation and stays clean.
//
//lakelint:hotpath
func (o *Org) reachProbsInto(dst []float64) []float64 {
	for i := range dst {
		dst[i] = 0
	}
	return dst
}
