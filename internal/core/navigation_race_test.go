package core

import (
	"sync"
	"testing"
)

// Concurrent read-only evaluation — TableProb and Effectiveness from
// many goroutines against one freshly built Org — must be race-free.
// Before attrIdx was precomputed at construction, the first TableProb
// call built the map lazily and concurrent callers raced; this test
// pins the fix under -race.
func TestConcurrentEffectivenessNoRace(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	want := o.Effectiveness()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if got := o.Effectiveness(); got != want {
					t.Errorf("concurrent Effectiveness = %v, want %v", got, want)
					return
				}
				probs := o.AttrDiscoveryProbs()
				for _, tab := range o.Lake.Tables {
					if p := o.TableProb(tab, probs); p < 0 || p > 1 {
						t.Errorf("TableProb(%s) = %v out of [0,1]", tab.Name, p)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// The attribute index must be ready on every construction funnel: a
// built organization and an imported one both answer TableProb
// without touching a lazy initializer.
func TestAttrIndexPrecomputedOnImport(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	imported, err := Import(l, o.Export())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range []*Org{o, imported} {
		idx := o.attrIndex()
		if len(idx) != len(o.Attrs()) {
			t.Fatalf("attrIndex has %d entries, want %d", len(idx), len(o.Attrs()))
		}
		for i, a := range o.Attrs() {
			if idx[a] != i {
				t.Errorf("attrIndex[%d] = %d, want %d", a, idx[a], i)
			}
		}
	}
}
