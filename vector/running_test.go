package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRunningEmpty(t *testing.T) {
	r := NewRunning(3)
	if r.Count() != 0 {
		t.Errorf("Count = %d, want 0", r.Count())
	}
	m, ok := r.Mean()
	if ok {
		t.Error("empty Running reported a mean")
	}
	if !Equal(m, Vector{0, 0, 0}, 0) {
		t.Errorf("empty mean = %v, want zero vector", m)
	}
}

func TestRunningAdd(t *testing.T) {
	r := NewRunning(2)
	r.Add(Vector{1, 2})
	r.Add(Vector{3, 4})
	m, ok := r.Mean()
	if !ok || !Equal(m, Vector{2, 3}, 1e-12) {
		t.Errorf("mean = %v, ok=%v", m, ok)
	}
	if r.Count() != 2 {
		t.Errorf("Count = %d, want 2", r.Count())
	}
	if !Equal(r.Sum(), Vector{4, 6}, 1e-12) {
		t.Errorf("Sum = %v", r.Sum())
	}
}

func TestRunningMerge(t *testing.T) {
	a, b := NewRunning(2), NewRunning(2)
	a.Add(Vector{1, 1})
	a.Add(Vector{3, 3})
	b.Add(Vector{5, 5})
	a.AddWeighted(b.Sum(), b.Count())
	m, _ := a.Mean()
	if !Equal(m, Vector{3, 3}, 1e-12) {
		t.Errorf("merged mean = %v, want {3,3}", m)
	}
	if a.Count() != 3 {
		t.Errorf("merged count = %d, want 3", a.Count())
	}
	// b unchanged.
	if b.Count() != 1 {
		t.Errorf("merge mutated source: count = %d", b.Count())
	}
}

func TestRunningAddWeightedNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddWeighted with negative count did not panic")
		}
	}()
	NewRunning(1).AddWeighted(Vector{1}, -1)
}

// Property: merging any split of a population (AddWeighted of one
// part's sum and count into the other) gives the same mean as
// accumulating the whole population at once.
func TestRunningMergeEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		n := 2 + r.Intn(30)
		cut := 1 + r.Intn(n-1)
		whole := NewRunning(4)
		left, right := NewRunning(4), NewRunning(4)
		for i := 0; i < n; i++ {
			v := randomVec(r, 4)
			whole.Add(v)
			if i < cut {
				left.Add(v)
			} else {
				right.Add(v)
			}
		}
		left.AddWeighted(right.Sum(), right.Count())
		wm, _ := whole.Mean()
		lm, _ := left.Mean()
		return whole.Count() == left.Count() && Equal(wm, lm, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRunningRemoveWeighted(t *testing.T) {
	r := NewRunning(2)
	r.AddWeighted(Vector{4, 6}, 2)
	r.AddWeighted(Vector{1, 1}, 1)
	r.RemoveWeighted(Vector{4, 6}, 2)
	m, ok := r.Mean()
	if !ok || !Equal(m, Vector{1, 1}, 1e-12) {
		t.Errorf("mean after remove = %v, ok=%v", m, ok)
	}
	if r.Count() != 1 {
		t.Errorf("count = %d, want 1", r.Count())
	}
}

func TestRunningRemoveWeightedOverdraw(t *testing.T) {
	r := NewRunning(1)
	r.AddWeighted(Vector{1}, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("overdraw did not panic")
		}
	}()
	r.RemoveWeighted(Vector{2}, 2)
}

// MeanInto must reproduce Mean bit for bit (it multiplies by 1/count,
// never divides), overwrite whatever dst held, and zero dst for an
// empty population.
func TestRunningMeanIntoMatchesMean(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	dst := New(5)
	for trial := 0; trial < 200; trial++ {
		run := NewRunning(5)
		n := r.Intn(40)
		for i := 0; i < n; i++ {
			run.Add(randomVec(r, 5))
		}
		for i := range dst {
			dst[i] = r.NormFloat64()
		}
		want, wantOK := run.Mean()
		if ok := run.MeanInto(dst); ok != wantOK {
			t.Fatalf("trial %d: MeanInto ok=%v, Mean ok=%v", trial, ok, wantOK)
		}
		for i := range want {
			if math.Float64bits(dst[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: component %d = %v, Mean gives %v", trial, i, dst[i], want[i])
			}
		}
	}
	run := NewRunning(5)
	run.Add(randomVec(r, 5))
	if allocs := testing.AllocsPerRun(100, func() { run.MeanInto(dst) }); allocs != 0 {
		t.Errorf("MeanInto allocates: %v per run", allocs)
	}
}
