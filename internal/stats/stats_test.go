package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"several", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		if got := Mean(tt.xs); !approx(got, tt.want, 1e-12) {
			t.Errorf("%s: Mean = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !approx(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := StdDev(xs); !approx(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
	if Variance([]float64{1}) != 0 || Variance(nil) != 0 {
		t.Error("degenerate variance should be 0")
	}
}

func TestMedianQuantile(t *testing.T) {
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := Median(nil); got != 0 {
		t.Errorf("empty median = %v, want 0", got)
	}
	xs := []float64{1, 2, 3, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v, want 2", got)
	}
	// Input not mutated.
	ys := []float64{3, 1, 2}
	Median(ys)
	if ys[0] != 3 {
		t.Error("Median mutated input")
	}
}

func TestQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Quantile(-0.1) did not panic")
		}
	}()
	Quantile([]float64{1}, -0.1)
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4, 1, 5}
	if Min(xs) != -1 || Max(xs) != 5 {
		t.Errorf("Min/Max = %v/%v", Min(xs), Max(xs))
	}
	if Min(nil) != 0 || Max(nil) != 0 {
		t.Error("empty Min/Max should be 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("Summary = %+v", s)
	}
	if s.String() == "" {
		t.Error("empty String()")
	}
}

func TestMannWhitneyKnownValue(t *testing.T) {
	// Classic worked example: clearly separated groups.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{6, 7, 8, 9, 10}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if res.U != 0 {
		t.Errorf("U = %v, want 0 for disjoint groups", res.U)
	}
	if res.P > 0.05 {
		t.Errorf("p = %v, want significant", res.P)
	}
	if res.MedianA != 3 || res.MedianB != 8 {
		t.Errorf("medians = %v, %v", res.MedianA, res.MedianB)
	}
}

func TestMannWhitneyIdenticalGroups(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6}
	res, err := MannWhitneyU(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if res.P < 0.9 {
		t.Errorf("identical samples p = %v, want ~1", res.P)
	}
	if !approx(res.U1, float64(len(a)*len(a))/2, 1e-9) {
		t.Errorf("U1 = %v, want n²/2", res.U1)
	}
}

func TestMannWhitneySymmetry(t *testing.T) {
	a := []float64{1.5, 2.5, 9, 4}
	b := []float64{3, 5, 6, 7, 8}
	r1, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := MannWhitneyU(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(r1.U, r2.U, 1e-9) || !approx(r1.P, r2.P, 1e-9) {
		t.Errorf("asymmetric: %v vs %v", r1, r2)
	}
}

func TestMannWhitneyTies(t *testing.T) {
	a := []float64{1, 2, 2, 3}
	b := []float64{2, 3, 3, 4}
	res, err := MannWhitneyU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.P) || res.P <= 0 || res.P > 1 {
		t.Errorf("tied-sample p = %v", res.P)
	}
}

func TestMannWhitneyDegenerate(t *testing.T) {
	if _, err := MannWhitneyU(nil, []float64{1}); err == nil {
		t.Error("empty sample accepted")
	}
	if _, err := MannWhitneyU([]float64{2, 2}, []float64{2, 2}); err == nil {
		t.Error("zero-variance pooled sample accepted")
	}
}

// Property: U1 + U2 == n1*n2 and p in (0, 1].
func TestMannWhitneyProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := func() bool {
		n1, n2 := 2+rng.Intn(20), 2+rng.Intn(20)
		a := make([]float64, n1)
		b := make([]float64, n2)
		for i := range a {
			a[i] = math.Round(rng.NormFloat64() * 5)
		}
		for i := range b {
			b[i] = math.Round(rng.NormFloat64()*5) + 1
		}
		res, err := MannWhitneyU(a, b)
		if err != nil {
			return true // degenerate draw is fine
		}
		u2 := float64(n1*n2) - res.U1
		if res.U > res.U1 || res.U > u2 {
			return false
		}
		return res.P > 0 && res.P <= 1 && !math.IsNaN(res.Z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// zipfPMF returns P(k) for k in [1, n], read off the sampler's CDF.
func zipfPMF(z *Zipf, k int) float64 {
	if k < 1 || k > z.n {
		return 0
	}
	if k == 1 {
		return z.cdf[0]
	}
	return z.cdf[k-1] - z.cdf[k-2]
}

func TestZipfBasics(t *testing.T) {
	z, err := NewZipf(10, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if z.n != 10 {
		t.Errorf("n = %d", z.n)
	}
	var total float64
	for k := 1; k <= 10; k++ {
		p := zipfPMF(z, k)
		if p <= 0 {
			t.Errorf("PMF(%d) = %v", k, p)
		}
		total += p
	}
	if !approx(total, 1, 1e-9) {
		t.Errorf("PMF total = %v", total)
	}
	if zipfPMF(z, 0) != 0 || zipfPMF(z, 11) != 0 {
		t.Error("PMF outside support should be 0")
	}
	// Monotone decreasing.
	for k := 2; k <= 10; k++ {
		if zipfPMF(z, k) > zipfPMF(z, k-1) {
			t.Errorf("PMF not decreasing at %d", k)
		}
	}
}

func TestZipfInvalid(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewZipf(5, 0); err == nil {
		t.Error("s=0 accepted")
	}
	if _, err := NewZipf(5, -1); err == nil {
		t.Error("s<0 accepted")
	}
}

func TestZipfSampleDistribution(t *testing.T) {
	z, err := NewZipf(5, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	counts := make([]int, 6)
	const n = 50000
	for i := 0; i < n; i++ {
		k := z.Sample(rng)
		if k < 1 || k > 5 {
			t.Fatalf("sample %d outside [1,5]", k)
		}
		counts[k]++
	}
	for k := 1; k <= 5; k++ {
		got := float64(counts[k]) / n
		want := zipfPMF(z, k)
		if math.Abs(got-want) > 0.01 {
			t.Errorf("empirical P(%d) = %v, want %v", k, got, want)
		}
	}
}

func TestZipfSupportsExponentBelowOne(t *testing.T) {
	// math/rand.Zipf cannot do s <= 1; ours must.
	z, err := NewZipf(100, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	seen := map[int]bool{}
	for i := 0; i < 5000; i++ {
		seen[z.Sample(rng)] = true
	}
	if len(seen) < 50 {
		t.Errorf("flat-ish Zipf visited only %d distinct outcomes", len(seen))
	}
}
