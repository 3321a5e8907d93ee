package stats

import (
	"fmt"
	"math"
	"math/rand"
)

// Zipf samples integers in [1, n] with P(k) ∝ 1/k^s. The paper's lake
// generators use Zipfian distributions for tags-per-table and
// attributes-per-table ("the number of tags per table and number of
// attributes per table follow Zipfian distributions", Sec 4.1).
//
// Unlike math/rand.Zipf, this sampler supports any exponent s > 0
// (rand.Zipf requires s > 1).
type Zipf struct {
	n   int
	s   float64
	cdf []float64
}

// NewZipf returns a Zipfian sampler over [1, n] with exponent s.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("stats: Zipf n must be positive, got %d", n)
	}
	if s <= 0 {
		return nil, fmt.Errorf("stats: Zipf exponent must be positive, got %v", s)
	}
	z := &Zipf{n: n, s: s, cdf: make([]float64, n)}
	var total float64
	for k := 1; k <= n; k++ {
		total += 1 / math.Pow(float64(k), s)
		z.cdf[k-1] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	z.cdf[n-1] = 1 // exact, despite rounding
	return z, nil
}

// Sample draws one value in [1, n] using rng.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	// Binary search the CDF.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}
