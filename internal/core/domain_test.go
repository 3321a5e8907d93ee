package core

import (
	"math/rand"
	"slices"
	"testing"

	"lakenav/internal/lake"
	"lakenav/internal/synth"
)

// supportOf returns how many direct children's domains contain a (0
// when a is outside D_s).
func (s *State) supportOf(a lake.AttrID) int {
	if i, ok := slices.BinarySearch(s.dom, a); ok {
		return int(s.sup[i])
	}
	return 0
}

// assertDomainsMatchReference checks every live non-leaf state's
// domain and support counts against the naive recount, and the
// organization's own invariants.
func assertDomainsMatchReference(t *testing.T, o *Org, step string) {
	t.Helper()
	for _, s := range o.States {
		if s.deleted || s.Kind == KindLeaf {
			continue
		}
		dom := s.Domain()
		for i := 1; i < len(dom); i++ {
			if dom[i-1] >= dom[i] {
				t.Fatalf("%s: state %d domain not ascending at %d: %v", step, s.ID, i, dom)
			}
		}
		want := naiveSupport(o, s.ID)
		if len(dom) != len(want) || s.DomainSize() != len(want) {
			t.Fatalf("%s: state %d has %d domain attrs, children supply %d", step, s.ID, len(dom), len(want))
		}
		for _, a := range dom {
			if got := s.supportOf(a); got != want[a] {
				t.Fatalf("%s: state %d support of attr %d = %d, reference %d", step, s.ID, a, got, want[a])
			}
			if !s.HasAttr(a) {
				t.Fatalf("%s: state %d HasAttr(%d) false for a domain attr", step, s.ID, a)
			}
		}
	}
	if err := o.Validate(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// Random ADD_PARENT, DELETE_PARENT (with its eliminations) and
// leaf-parent operations, each undone or kept at random, then a lake
// batch that removes tables: after every step the sorted-slice domains
// and counts must equal a from-scratch recount.
func TestDomainMaintenanceMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 41} {
		o := kernelTestOrg(t, seed)
		rng := rand.New(rand.NewSource(seed))
		assertDomainsMatchReference(t, o, "initial")
		for step := 0; step < 60; step++ {
			_, u, ok := applyRandomOp(o, rng)
			if !ok {
				break
			}
			assertDomainsMatchReference(t, o, "apply")
			if rng.Intn(2) == 0 {
				o.Undo(u)
				assertDomainsMatchReference(t, o, "undo")
			}
		}
		var remove []string
		for i, tb := range o.Lake.Tables {
			if i%4 == 1 {
				remove = append(remove, tb.Name)
			}
		}
		sum, err := o.Lake.ApplyChanges(nil, remove)
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.RemovedAttrs) == 0 {
			t.Fatal("removal batch removed no attributes")
		}
		if _, err := o.ApplyLakeBatch(sum, nil); err != nil {
			t.Fatal(err)
		}
		assertDomainsMatchReference(t, o, "remove batch")
		for _, a := range sum.RemovedAttrs {
			if o.States[o.Root].HasAttr(a) {
				t.Fatalf("removed attr %d still in the root's domain", a)
			}
		}
	}
}

// socrataAllocOrg is a 240-table Socrata organization: a root domain
// many times the TagCloud test org's.
func socrataAllocOrg(t testing.TB) *Org {
	t.Helper()
	soc := synth.SmallSocrataConfig()
	soc.Tables = 240
	socLake, err := synth.GenerateSocrata(soc)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(socLake.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// One ADD_PARENT and its Undo allocate the same small number of
// objects whatever the domain sizes: support bumps are in place, and
// the propagation scratch and topic means reuse Org-owned buffers.
func TestAddParentUndoAllocsFlat(t *testing.T) {
	const maxAllocs = 4
	for name, o := range map[string]*Org{"tagcloud": kernelTestOrg(t, 31), "socrata": socrataAllocOrg(t)} {
		n, s := toggleAddParent(t, o)
		allocs := testing.AllocsPerRun(50, func() {
			o.Undo(o.AddParentOp(n, s))
		})
		t.Logf("%s (root domain %d): %.1f allocs per AddParentOp+Undo", name, o.States[o.Root].DomainSize(), allocs)
		if allocs > maxAllocs {
			t.Errorf("%s: AddParentOp+Undo allocates %.1f objects, want at most %d", name, allocs, maxAllocs)
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

// The support fast paths — bump and decrement of an attribute already
// in the domain — never allocate.
func TestSupportFastPathZeroAllocs(t *testing.T) {
	o := kernelTestOrg(t, 31)
	root := o.States[o.Root]
	a := root.dom[len(root.dom)/2]
	allocs := testing.AllocsPerRun(100, func() {
		root.bumpSupport(a, 0)
		root.dropSupport(a, 0)
	})
	if allocs != 0 {
		t.Errorf("support bump/decrement allocates %v per run", allocs)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAddParentUndo measures one ADD_PARENT and its Undo on the
// 240-table Socrata organization: the apply/undo pair the optimizer
// runs for every candidate it scores.
func BenchmarkAddParentUndo(b *testing.B) {
	o := socrataAllocOrg(b)
	n, s := toggleAddParent(b, o)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Undo(o.AddParentOp(n, s))
	}
}
