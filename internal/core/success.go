package core

import (
	"sort"

	"lakenav/internal/lake"
	"lakenav/vector"
)

// The evaluation measure of Sec 4.2: a navigation is successful if it
// finds the queried attribute *or a similar one*. Success(A|O) =
// 1 − ∏_{A_i : κ(A_i, A) ≥ θ} (1 − P(A_i|O)) with κ the cosine
// similarity of topic vectors and θ = 0.9 in the paper; table success
// composes attribute successes like Eq 5.

// DefaultTheta is the paper's similarity threshold.
const DefaultTheta = 0.9

// SuccessResult holds per-table success probabilities.
type SuccessResult struct {
	// PerTable is indexed by TableID.
	PerTable []float64
	// Sorted is PerTable ascending — the series plotted in Figure 2.
	Sorted []float64
	// Mean is the average table success probability (the headline
	// numbers of Sec 4.3).
	Mean float64
}

// AttrProbMap returns each organized attribute's exact discovery
// probability as a map, the input shape EvaluateSuccess consumes.
// Multi-dimensional organizations provide the same shape via
// MultiDim.AttrProbs.
func AttrProbMap(o *Org) map[lake.AttrID]float64 {
	probs := o.AttrDiscoveryProbs()
	out := make(map[lake.AttrID]float64, len(probs))
	for i, a := range o.Attrs() {
		out[a] = probs[i]
	}
	return out
}

// EvaluateSuccess computes the success probability of every table in
// the lake under the given per-attribute discovery probabilities.
// Similar sets are exact: each live embeddable text attribute scans all
// the others, so the cost is O(|𝒜|²·dim) with O(|𝒜|) memory. Each row
// multiplies its factors in ascending attribute order and writes only
// its own slot, so the result is bit-identical at any GOMAXPROCS.
// Tombstoned tables keep a 0 in PerTable but are left out of Sorted and
// Mean.
func EvaluateSuccess(l *lake.Lake, attrProbs map[lake.AttrID]float64, theta float64) *SuccessResult {
	if theta <= 0 || theta > 1 {
		theta = DefaultTheta
	}
	// Similarity is defined over 𝒜, not just organized attributes.
	var (
		ids    []lake.AttrID
		topics []vector.Vector
		norms  []float64
		probs  []float64
	)
	for _, a := range l.Attrs {
		if a.Removed || !a.Text || a.EmbCount == 0 {
			continue
		}
		ids = append(ids, a.ID)
		topics = append(topics, a.Topic)
		norms = append(norms, vector.Norm(a.Topic))
		probs = append(probs, attrProbs[a.ID])
	}

	// Success per attribute, indexed by AttrID; attributes outside 𝒜
	// keep 0 and so leave a table's product unchanged.
	attrSuccess := make([]float64, len(l.Attrs))
	ParallelFor(len(ids), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fail := 1.0
			for j, t := range topics {
				if vector.CosineNorms(topics[i], t, norms[i], norms[j]) >= theta {
					fail *= 1 - probs[j]
				}
			}
			attrSuccess[ids[i]] = 1 - fail
		}
	})

	// Success per table (Sec 4.2's table success probability).
	res := &SuccessResult{PerTable: make([]float64, len(l.Tables))}
	var sum float64
	for ti, t := range l.Tables {
		if t.Removed {
			continue
		}
		fail := 1.0
		for _, a := range t.Attrs {
			fail *= 1 - attrSuccess[a]
		}
		res.PerTable[ti] = 1 - fail
		res.Sorted = append(res.Sorted, res.PerTable[ti])
		sum += res.PerTable[ti]
	}
	sort.Float64s(res.Sorted)
	if len(res.Sorted) > 0 {
		res.Mean = sum / float64(len(res.Sorted))
	}
	return res
}
