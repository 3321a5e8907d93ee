package vector

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDot(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float64
	}{
		{"orthogonal", Vector{1, 0}, Vector{0, 1}, 0},
		{"parallel", Vector{1, 2, 3}, Vector{2, 4, 6}, 28},
		{"negative", Vector{1, -1}, Vector{1, 1}, 0},
		{"empty", Vector{}, Vector{}, 0},
		{"single", Vector{3}, Vector{4}, 12},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Dot(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Dot(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Dot on mismatched dims did not panic")
		}
	}()
	Dot(Vector{1}, Vector{1, 2})
}

func TestNorm(t *testing.T) {
	tests := []struct {
		name string
		v    Vector
		want float64
	}{
		{"zero", Vector{0, 0, 0}, 0},
		{"unit", Vector{1, 0, 0}, 1},
		{"pythagorean", Vector{3, 4}, 5},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Norm(tt.v); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Norm(%v) = %v, want %v", tt.v, got, tt.want)
			}
		})
	}
}

func TestCosine(t *testing.T) {
	tests := []struct {
		name string
		a, b Vector
		want float64
	}{
		{"identical", Vector{1, 2, 3}, Vector{1, 2, 3}, 1},
		{"opposite", Vector{1, 0}, Vector{-1, 0}, -1},
		{"orthogonal", Vector{1, 0}, Vector{0, 1}, 0},
		{"scaled is identical", Vector{1, 1}, Vector{10, 10}, 1},
		{"zero left", Vector{0, 0}, Vector{1, 1}, 0},
		{"zero right", Vector{1, 1}, Vector{0, 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Cosine(tt.a, tt.b); !almostEqual(got, tt.want, 1e-12) {
				t.Errorf("Cosine(%v, %v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestAddSubScale(t *testing.T) {
	a, b := Vector{1, 2}, Vector{3, 5}
	if got := Scale(a, 2); !Equal(got, Vector{2, 4}, 0) {
		t.Errorf("Scale = %v", got)
	}
	// Scale must not mutate its input; AddInPlace mutates only its first.
	AddInPlace(b, a)
	if !Equal(a, Vector{1, 2}, 0) || !Equal(b, Vector{4, 7}, 0) {
		t.Errorf("after Scale and AddInPlace: a = %v, b = %v", a, b)
	}
}

func TestNormalize(t *testing.T) {
	v := Normalize(Vector{3, 4})
	if !almostEqual(Norm(v), 1, 1e-12) {
		t.Errorf("Normalize norm = %v, want 1", Norm(v))
	}
	z := Normalize(Vector{0, 0})
	if !Equal(z, Vector{0, 0}, 0) {
		t.Errorf("Normalize zero = %v", z)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := Vector{1, 2, 3}
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Error("Clone shares storage with original")
	}
}

// randomVec builds a random vector generator for property tests.
func randomVec(r *rand.Rand, dim int) Vector {
	v := New(dim)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

func TestCosineProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		a, b := randomVec(r, 16), randomVec(r, 16)
		c := Cosine(a, b)
		if c < -1 || c > 1 {
			return false
		}
		// Symmetry.
		if !almostEqual(c, Cosine(b, a), 1e-12) {
			return false
		}
		// Scale invariance.
		if !almostEqual(c, Cosine(Scale(a, 3.7), b), 1e-9) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDotLinearity(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	f := func() bool {
		a, b, c := randomVec(r, 8), randomVec(r, 8), randomVec(r, 8)
		sum := a.Clone()
		AddInPlace(sum, b)
		lhs := Dot(sum, c)
		rhs := Dot(a, c) + Dot(b, c)
		return almostEqual(lhs, rhs, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMeanMatchesRunning(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	f := func() bool {
		n := 1 + r.Intn(20)
		sum := New(8)
		run := NewRunning(8)
		for i := 0; i < n; i++ {
			v := randomVec(r, 8)
			AddInPlace(sum, v)
			run.Add(v)
		}
		want := Scale(sum, 1/float64(n))
		got, ok := run.Mean()
		return ok && Equal(want, got, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSubAndAddPanicOnMismatch(t *testing.T) {
	for name, fn := range map[string]func(){
		"AddInPlace": func() { AddInPlace(Vector{1}, Vector{1, 2}) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		})
	}
}

func TestEqualDimensionMismatch(t *testing.T) {
	if Equal(Vector{1}, Vector{1, 2}, 1) {
		t.Error("Equal across dimensions")
	}
}

func TestNewAndDim(t *testing.T) {
	v := New(5)
	if len(v) != 5 {
		t.Errorf("len = %d", len(v))
	}
	for _, x := range v {
		if x != 0 {
			t.Error("New not zeroed")
		}
	}
}
