package cluster

import (
	"math/rand"
	"testing"

	"lakenav/vector"
)

// separatedVectors builds k tight groups of unit vectors around
// near-orthogonal axes.
func separatedVectors(k, perGroup, dim int, rng *rand.Rand) ([]vector.Vector, []int) {
	axes := make([]vector.Vector, k)
	for i := range axes {
		v := vector.New(dim)
		v[i%dim] = 1
		v[(i*3+1)%dim] = 0.2
		axes[i] = vector.Normalize(v)
	}
	var vs []vector.Vector
	var truth []int
	for g, axis := range axes {
		for j := 0; j < perGroup; j++ {
			v := axis.Clone()
			for d := range v {
				v[d] += rng.NormFloat64() * 0.02
			}
			vs = append(vs, vector.Normalize(v))
			truth = append(truth, g)
		}
	}
	return vs, truth
}

func TestKMedoidsRecoverGroups(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vs, truth := separatedVectors(3, 10, 12, rng)
	res, err := KMedoidsVectors(vs, 3, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 3 {
		t.Fatalf("medoids = %v", res.Medoids)
	}
	// All members of a ground-truth group must share a cluster.
	for g := 0; g < 3; g++ {
		var c = -1
		for i, tg := range truth {
			if tg != g {
				continue
			}
			if c == -1 {
				c = res.Assign[i]
			} else if res.Assign[i] != c {
				t.Fatalf("group %d split across clusters", g)
			}
		}
	}
	if len(res.Assign) != len(vs) {
		t.Errorf("assignment covers %d/%d items", len(res.Assign), len(vs))
	}
}

func TestKMedoidsMedoidInOwnCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vs, _ := separatedVectors(4, 6, 12, rng)
	res, err := KMedoidsVectors(vs, 4, rng, 100)
	if err != nil {
		t.Fatal(err)
	}
	for c, m := range res.Medoids {
		if res.Assign[m] != c {
			t.Errorf("medoid %d assigned to cluster %d, not its own %d", m, res.Assign[m], c)
		}
	}
}

func TestKMedoidsKEqualsN(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vs, _ := separatedVectors(2, 2, 8, rng)
	res, err := KMedoidsVectors(vs, len(vs), rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost > 1e-9 {
		t.Errorf("k=n cost = %v, want 0", res.Cost)
	}
	seen := map[int]bool{}
	for _, m := range res.Medoids {
		if seen[m] {
			t.Error("duplicate medoid at k=n")
		}
		seen[m] = true
	}
}

func TestKMedoidsK1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	vs, _ := separatedVectors(2, 5, 8, rng)
	res, err := KMedoidsVectors(vs, 1, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a != 0 {
			t.Fatal("k=1 left items outside cluster 0")
		}
	}
}

func TestKMedoidsInvalidK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vs := []vector.Vector{{1, 0}, {0, 1}}
	if _, err := KMedoidsVectors(vs, 0, rng, 10); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := KMedoidsVectors(vs, 3, rng, 10); err == nil {
		t.Error("k>n accepted")
	}
}

func TestKMedoidsIdenticalItems(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	vs := []vector.Vector{{1, 0}, {1, 0}, {1, 0}, {1, 0}}
	res, err := KMedoidsVectors(vs, 2, rng, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Medoids) != 2 || res.Medoids[0] == res.Medoids[1] {
		t.Errorf("identical-item medoids = %v", res.Medoids)
	}
}

func TestKMedoidsDeterministicWithSeed(t *testing.T) {
	vs, _ := separatedVectors(3, 8, 10, rand.New(rand.NewSource(13)))
	a, err := KMedoidsVectors(vs, 3, rand.New(rand.NewSource(99)), 100)
	if err != nil {
		t.Fatal(err)
	}
	b, err := KMedoidsVectors(vs, 3, rand.New(rand.NewSource(99)), 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same-seed runs diverged")
		}
	}
}
