package core

import (
	"math/rand"
	"reflect"
	"testing"
)

// freshAdjacency builds o's CSR snapshot from empty storage, as the
// first adjacency() call on a new organization does, leaving o's cached
// and spare snapshots as they were.
func freshAdjacency(o *Org) *adjSnapshot {
	adj, spare := o.adj, o.spareAdj
	o.adj, o.spareAdj = nil, nil
	a := o.adjacency()
	o.adj, o.spareAdj = adj, spare
	return a
}

// TestAdjacencyReuseMatchesFresh drives random operations through the
// search loop's cycle — apply, Reevaluate, then Commit or Undo and
// Rollback — and checks after every step that the snapshot rebuilt
// into the spare's arrays equals one built from empty storage, and that
// the rebuild did reuse the spare.
func TestAdjacencyReuseMatchesFresh(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		o := kernelTestOrg(t, seed)
		ev, err := NewEvaluatorWorkers(o, 0, nil, 2)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		check := func(stage string, step int, prev *adjSnapshot) *adjSnapshot {
			t.Helper()
			got := o.adjacency()
			if prev != nil && got != prev {
				t.Fatalf("seed %d step %d %s: rebuild allocated a new snapshot instead of reusing the spare", seed, step, stage)
			}
			if want := freshAdjacency(o); !reflect.DeepEqual(*got, *want) {
				t.Fatalf("seed %d step %d %s: reused snapshot differs from a fresh build", seed, step, stage)
			}
			return got
		}
		prev := check("start", 0, nil)
		commits, rollbacks := 0, 0
		for step := 1; step <= 60; step++ {
			cs, u, ok := applyRandomOp(o, rng)
			if !ok {
				t.Fatalf("seed %d step %d: no applicable operation", seed, step)
			}
			ev.Reevaluate(cs)
			prev = check("after Reevaluate", step, prev)
			if rng.Intn(2) == 0 {
				if err := ev.Commit(); err != nil {
					t.Fatal(err)
				}
				commits++
				continue
			}
			o.Undo(u)
			if err := ev.Rollback(); err != nil {
				t.Fatal(err)
			}
			rollbacks++
			prev = check("after Undo and Rollback", step, prev)
		}
		if commits == 0 || rollbacks == 0 {
			t.Fatalf("seed %d: %d commits, %d rollbacks; want both paths", seed, commits, rollbacks)
		}
	}
}

// TestAdjacencyRebuildAllocs pins the CSR rebuild after an edge change
// at zero allocations once its arrays have grown to the organization.
func TestAdjacencyRebuildAllocs(t *testing.T) {
	o := kernelTestOrg(t, 31)
	p, c := toggleAddParent(t, o)
	toggle := func() {
		o.addEdge(p, c)
		o.adjacency()
		o.removeEdge(p, c)
		o.adjacency()
	}
	toggle()
	if n := testing.AllocsPerRun(100, toggle); n != 0 {
		t.Errorf("adjacency rebuild after an edge change allocates %.1f per cycle, want 0", n)
	}
}
