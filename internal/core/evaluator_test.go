package core

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"lakenav/internal/synth"
	"lakenav/vector"
)

func exactEvaluator(t *testing.T, o *Org) *Evaluator {
	t.Helper()
	ev, err := NewEvaluator(o, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return ev
}

func TestEvaluatorMatchesDirectComputation(t *testing.T) {
	o := clusteredOrg(t)
	ev := exactEvaluator(t, o)
	if got, want := ev.Effectiveness(), o.Effectiveness(); math.Abs(got-want) > 1e-12 {
		t.Errorf("evaluator eff %v != direct %v", got, want)
	}
	probs := o.AttrDiscoveryProbs()
	for i := range o.Attrs() {
		if math.Abs(ev.AttrProb(i)-probs[i]) > 1e-12 {
			t.Errorf("attr %d prob %v != direct %v", i, ev.AttrProb(i), probs[i])
		}
	}
}

func TestMeanReachRoot(t *testing.T) {
	o := clusteredOrg(t)
	ev := exactEvaluator(t, o)
	mr := ev.MeanReach()
	if math.Abs(mr[o.Root]-1) > 1e-12 {
		t.Errorf("root mean reach = %v", mr[o.Root])
	}
	for id, r := range mr {
		if r < -1e-12 || r > 1+1e-12 {
			t.Errorf("state %d mean reach %v out of range", id, r)
		}
	}
}

// applyRandomOp applies one operation drawn from searchStepCandidates
// and returns the change set and undo log, or false if nothing
// applied.
func applyRandomOp(o *Org, rng *rand.Rand) (*ChangeSet, *UndoLog, bool) {
	cands := searchStepCandidates(o)
	if len(cands) == 0 {
		return nil, nil, false
	}
	pick := cands[rng.Intn(len(cands))]
	cs := o.BeginChanges()
	u := pick.apply(o)
	o.EndChanges()
	return cs, u, true
}

// The central correctness property of the incremental evaluator: after
// any committed operation, its cached effectiveness equals a from-scratch
// exact evaluation of the mutated organization.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	o := clusteredOrg(t)
	ev := exactEvaluator(t, o)
	for step := 0; step < 25; step++ {
		cs, _, ok := applyRandomOp(o, rng)
		if !ok {
			break
		}
		got := ev.Reevaluate(cs)
		ev.Commit()
		fresh := exactEvaluator(t, o)
		if math.Abs(got-fresh.Effectiveness()) > 1e-9 {
			t.Fatalf("step %d: incremental eff %v != fresh %v", step, got, fresh.Effectiveness())
		}
		for i := range o.Attrs() {
			if math.Abs(ev.AttrProb(i)-fresh.AttrProb(i)) > 1e-9 {
				t.Fatalf("step %d attr %d: incremental %v != fresh %v",
					step, i, ev.AttrProb(i), fresh.AttrProb(i))
			}
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// The evaluator's cosine memo stays coherent with the arena: through
// random candidate operations resolved by Reevaluate+Rollback (with
// Org.Undo) or Reevaluate+Commit, in exact and approximate mode, every
// memo cell that holds a value equals a fresh CosineNorms against the
// state's current topic, and the cached results match a newly built
// evaluator. Dropping either invalidation (Reevaluate's or Rollback's)
// leaves a cell holding a cosine of a topic that moved.
func TestEvaluatorSimMemoCoherent(t *testing.T) {
	const tol = 1e-12
	for _, frac := range []float64{0, 0.2} {
		o := kernelTestOrg(t, 5)
		newEv := func() *Evaluator {
			ev, err := NewEvaluatorWorkers(o, frac, rand.New(rand.NewSource(3)), 4)
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
		ev := newEv()
		check := func(stage string, step int) {
			t.Helper()
			ar := o.arena
			for q, query := range ev.queries {
				for id, sim := range ev.sims[q] {
					if math.IsNaN(sim) {
						continue
					}
					off := id * ar.dim
					if want := vector.CosineNorms(ar.vecs[off:off+ar.dim], query.Topic, ar.norms[id], ev.queryNorm[q]); sim != want {
						t.Fatalf("frac %v step %d %s: query %d state %d memo %v != fresh cosine %v", frac, step, stage, q, id, sim, want)
					}
				}
			}
			fresh := newEv()
			if got, want := ev.Effectiveness(), fresh.Effectiveness(); math.Abs(got-want) > tol {
				t.Fatalf("frac %v step %d %s: eff %v != fresh %v", frac, step, stage, got, want)
			}
			for i := range o.Attrs() {
				if got, want := ev.AttrProb(i), fresh.AttrProb(i); math.Abs(got-want) > tol {
					t.Fatalf("frac %v step %d %s: attr %d prob %v != fresh %v", frac, step, stage, i, got, want)
				}
			}
		}
		check("construction", -1)
		rng := rand.New(rand.NewSource(41))
		for step := 0; step < 24; step++ {
			cs, u, ok := applyRandomOp(o, rng)
			if !ok {
				break
			}
			ev.Reevaluate(cs)
			check("reevaluate", step)
			if rng.Intn(2) == 0 {
				o.Undo(u)
				if err := ev.Rollback(); err != nil {
					t.Fatal(err)
				}
				check("rollback", step)
			} else {
				if err := ev.Commit(); err != nil {
					t.Fatal(err)
				}
				check("commit", step)
			}
		}
	}
}

// Rollback must restore both the organization (via Undo) and the
// evaluator caches exactly: it puts back the saved bits, so the
// effectiveness, every discovery probability and every mean reach are
// bit-equal to their values before the Reevaluate.
func TestRollbackRestoresExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	o := clusteredOrg(t)
	ev := exactEvaluator(t, o)
	for step := 0; step < 20; step++ {
		effBefore := ev.Effectiveness()
		probsBefore := make([]float64, len(o.Attrs()))
		for i := range probsBefore {
			probsBefore[i] = ev.AttrProb(i)
		}
		reachBefore := ev.MeanReach()

		cs, u, ok := applyRandomOp(o, rng)
		if !ok {
			break
		}
		ev.Reevaluate(cs)
		o.Undo(u)
		ev.Rollback()

		if ev.Effectiveness() != effBefore {
			t.Fatalf("step %d: eff %v != %v after rollback", step, ev.Effectiveness(), effBefore)
		}
		for i := range probsBefore {
			if ev.AttrProb(i) != probsBefore[i] {
				t.Fatalf("step %d: attr %d prob %v != %v after rollback", step, i, ev.AttrProb(i), probsBefore[i])
			}
		}
		reachAfter := ev.MeanReach()
		for id := range reachBefore {
			if reachBefore[id] != reachAfter[id] {
				t.Fatalf("step %d: state %d mean reach %v != %v after rollback", step, id, reachAfter[id], reachBefore[id])
			}
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

func TestEvaluatorPruningCountsBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	o := clusteredOrg(t)
	ev := exactEvaluator(t, o)
	for step := 0; step < 10; step++ {
		cs, _, ok := applyRandomOp(o, rng)
		if !ok {
			break
		}
		ev.Reevaluate(cs)
		ev.Commit()
		if ev.last.states > ev.TotalStates()+len(cs.Eliminated) {
			t.Errorf("step %d: visited %d of %d states", step, ev.last.states, ev.TotalStates())
		}
		if ev.last.attrs > ev.TotalAttrs() {
			t.Errorf("step %d: visited %d of %d attrs", step, ev.last.attrs, ev.TotalAttrs())
		}
	}
}

func TestRepresentativeSelection(t *testing.T) {
	o := clusteredOrg(t)
	rng := rand.New(rand.NewSource(29))
	ev, err := NewEvaluator(o, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	n := len(o.Attrs())
	queries := ev.queries
	if len(queries) >= n || len(queries) < 1 {
		t.Fatalf("rep count = %d over %d attrs", len(queries), n)
	}
	// Every attribute must belong to exactly one representative.
	covered := make(map[int]bool)
	total := 0
	for qi, q := range queries {
		if len(q.Members) == 0 {
			t.Errorf("query %d has no members", qi)
		}
		total += len(q.Members)
	}
	if total != n {
		t.Errorf("members cover %d of %d attrs", total, n)
	}
	_ = covered
	// Approximate effectiveness is within [0, 1] and not absurdly far
	// from exact on this tiny lake.
	exact := exactEvaluator(t, o)
	if d := math.Abs(ev.Effectiveness() - exact.Effectiveness()); d > 0.5 {
		t.Errorf("approx eff %v too far from exact %v", ev.Effectiveness(), exact.Effectiveness())
	}
}

func TestApproximateEvaluatorNeedsRNG(t *testing.T) {
	o := clusteredOrg(t)
	if _, err := NewEvaluator(o, 0.5, nil); err == nil {
		t.Error("nil rng accepted in approximate mode")
	}
}

func TestCommitRollbackMisuseReturnsError(t *testing.T) {
	o := clusteredOrg(t)
	ev := exactEvaluator(t, o)
	if err := ev.Commit(); err == nil {
		t.Error("Commit without Reevaluate returned nil error")
	}
	if err := ev.Rollback(); err == nil {
		t.Error("Rollback without Reevaluate returned nil error")
	}
	// Misuse must not corrupt the evaluator: a normal cycle still works.
	cs := o.BeginChanges()
	o.EndChanges()
	ev.Reevaluate(cs)
	if err := ev.Commit(); err != nil {
		t.Errorf("Commit after Reevaluate: %v", err)
	}
}

// The evaluator's transition memo stays coherent with the organization:
// through random ADD_PARENT, DELETE_PARENT (with eliminations) and
// leaf-parent operations resolved by Reevaluate+Rollback (with
// Org.Undo) or Reevaluate+Commit, in exact and approximate mode, every
// live state's slot is sized by its current fan-out, every row that is
// not marked stale equals a fresh transitionsInto on the current
// organization, and the cached results match a newly built evaluator.
// Org.Undo re-appends restored edges, so a rolled-back state's children
// can come back in another order: a row left unmarked by either
// Reevaluate or Rollback — an eliminated state's included — is caught
// here.
func TestEvaluatorTransitionMemoCoherent(t *testing.T) {
	const tol = 1e-12
	for _, frac := range []float64{0, 0.2} {
		o := kernelTestOrg(t, 5)
		newEv := func() *Evaluator {
			ev, err := NewEvaluatorWorkers(o, frac, rand.New(rand.NewSource(3)), 4)
			if err != nil {
				t.Fatal(err)
			}
			return ev
		}
		ev := newEv()
		checked := 0
		check := func(stage string, step int) {
			t.Helper()
			fresh := make([]float64, o.maxFanOut())
			nq := len(ev.queries)
			for id, s := range o.States {
				if s.deleted || s.Kind == KindLeaf {
					continue
				}
				fan := len(s.Children)
				slot := ev.trans[id]
				if len(slot) != nq*fan {
					t.Fatalf("frac %v step %d %s: state %d slot holds %d cells, want %d queries × fan-out %d", frac, step, stage, id, len(slot), nq, fan)
				}
				for q, query := range ev.queries {
					row := slot[q*fan : (q+1)*fan]
					if fan == 0 || math.IsNaN(row[0]) {
						continue
					}
					want := o.transitionsInto(StateID(id), query.Topic, ev.queryNorm[q], nil, fresh)
					for i := range row {
						if row[i] != want[i] {
							t.Fatalf("frac %v step %d %s: query %d state %d memo[%d] = %v, fresh transition %v", frac, step, stage, q, id, i, row[i], want[i])
						}
					}
					checked++
				}
			}
			fe := newEv()
			if got, want := ev.Effectiveness(), fe.Effectiveness(); math.Abs(got-want) > tol {
				t.Fatalf("frac %v step %d %s: eff %v != fresh %v", frac, step, stage, got, want)
			}
			for i := range o.Attrs() {
				if got, want := ev.AttrProb(i), fe.AttrProb(i); math.Abs(got-want) > tol {
					t.Fatalf("frac %v step %d %s: attr %d prob %v != fresh %v", frac, step, stage, i, got, want)
				}
			}
		}
		check("construction", -1)
		rng := rand.New(rand.NewSource(43))
		elimRollbacks := 0
		for step := 0; step < 40; step++ {
			cs, u, ok := applyRandomOp(o, rng)
			if !ok {
				break
			}
			ev.Reevaluate(cs)
			check("reevaluate", step)
			if rng.Intn(2) == 0 {
				o.Undo(u)
				if err := ev.Rollback(); err != nil {
					t.Fatal(err)
				}
				check("rollback", step)
				if len(cs.Eliminated) > 0 {
					elimRollbacks++
				}
			} else {
				if err := ev.Commit(); err != nil {
					t.Fatal(err)
				}
				check("commit", step)
			}
		}
		if elimRollbacks == 0 || checked == 0 {
			t.Fatalf("frac %v: storm rolled back %d eliminations and checked %d rows; it must exercise both", frac, elimRollbacks, checked)
		}
	}
}

// One Reevaluate+Rollback on a single worker allocates a fixed handful
// of objects (the two worker closures), however large the organization:
// the per-call sets, the ordering and the plan live in evaluator-owned,
// generation-stamped slices, and the transition memo grows only when a
// fan-out outgrows its slot.
func TestReevaluateAllocationsFlat(t *testing.T) {
	soc := synth.SmallSocrataConfig()
	soc.Tables = 240
	socLake, err := synth.GenerateSocrata(soc)
	if err != nil {
		t.Fatal(err)
	}
	socOrg, err := NewClustered(socLake.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	const maxAllocs = 2
	for name, o := range map[string]*Org{"tagcloud": kernelTestOrg(t, 31), "socrata": socOrg} {
		for _, frac := range []float64{0, 0.1} {
			ev, err := NewEvaluatorWorkers(o, frac, rand.New(rand.NewSource(7)), 1)
			if err != nil {
				t.Fatal(err)
			}
			n, s := toggleAddParent(t, o)
			cs := o.BeginChanges()
			u := o.AddParentOp(n, s)
			o.EndChanges()
			// The organization stays in its post-operation shape, so every
			// run re-evaluates the same change from the same cached state.
			allocs := testing.AllocsPerRun(20, func() {
				ev.Reevaluate(cs)
				if err := ev.Rollback(); err != nil {
					t.Fatal(err)
				}
			})
			o.Undo(u)
			t.Logf("%s (%d states) frac %v: %.1f allocs per Reevaluate+Rollback", name, len(o.States), frac, allocs)
			if allocs > maxAllocs {
				t.Errorf("%s frac %v: Reevaluate+Rollback allocates %.1f objects, want at most %d", name, frac, allocs, maxAllocs)
			}
		}
	}
}

// The rollback buffer stays at its high-water mark: after one wide
// Reevaluate+Rollback (a DELETE_PARENT under the root, whose plan is
// re-swept for every query of an exact evaluator), narrow and wide calls
// in turn allocate a small fraction of one buffer's bytes.
func TestReevaluateRollbackBytesFlat(t *testing.T) {
	soc := synth.SmallSocrataConfig()
	soc.Tables = 240
	l, err := synth.GenerateSocrata(soc)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(l.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluatorWorkers(o, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	wide := func() *UndoLog {
		for _, r := range o.States[o.Root].Children {
			for _, s := range o.States[r].Children {
				if o.CanDeleteParent(s, r) {
					return o.DeleteParentOp(s, r)
				}
			}
		}
		t.Fatal("no DELETE_PARENT under the root")
		return nil
	}
	// A leaf drops one of its tag parents: no reach moves, and the tag
	// state's transition slot shrinks, so its memo never regrows.
	narrow := func() *UndoLog {
		for _, leaf := range o.States {
			for _, ts := range leaf.Parents {
				if o.CanRemoveLeafParent(ts, leaf.ID) {
					return o.RemoveLeafParentOp(ts, leaf.ID)
				}
			}
		}
		t.Fatal("no leaf with two tag parents")
		return nil
	}
	// cycle applies op, re-evaluates and rolls it back, and returns the
	// bytes the two evaluator calls allocated and the rollback cells the
	// call saved. The organization's own work (the operation and its
	// undo) is outside the measured windows.
	var ms runtime.MemStats
	cycle := func(op func() *UndoLog) (bytes uint64, cells int) {
		cs := o.BeginChanges()
		u := op()
		o.EndChanges()
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		ev.Reevaluate(cs)
		runtime.ReadMemStats(&ms)
		bytes = ms.TotalAlloc - before
		cells = len(ev.savedReach)
		o.Undo(u)
		runtime.ReadMemStats(&ms)
		before = ms.TotalAlloc
		if err := ev.Rollback(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		return bytes + ms.TotalAlloc - before, cells
	}
	_, wideCells := cycle(wide)
	if wideCells <= 1<<15 {
		t.Fatalf("wide call saved %d reach cells, want more than %d", wideCells, 1<<15)
	}
	logBytes := uint64(wideCells) * 8
	var total uint64
	for i, op := range []func() *UndoLog{narrow, wide, narrow, wide} {
		b, cells := cycle(op)
		t.Logf("call %d: %d cells saved, %d bytes allocated", i, cells, b)
		total += b
	}
	if total > logBytes/16 {
		t.Errorf("narrow/wide Reevaluate+Rollback allocated %d bytes after the first wide call, want at most %d (1/16 of one %d-cell log)", total, logBytes/16, wideCells)
	}
}

// The reach memo holds one row of nq cells per non-leaf state and none
// for leaves: the block is nq × (non-leaf states), in exact and
// approximate mode, and stays so through operations that eliminate
// states and roll them back.
func TestReachBlockSizedByNonLeafStates(t *testing.T) {
	for _, frac := range []float64{0, 0.2} {
		o := kernelTestOrg(t, 5)
		nonLeaf := 0
		for _, s := range o.States {
			if s.Kind != KindLeaf {
				nonLeaf++
			}
		}
		if nonLeaf == len(o.States) {
			t.Fatal("organization has no leaves")
		}
		ev, err := NewEvaluatorWorkers(o, frac, rand.New(rand.NewSource(3)), 2)
		if err != nil {
			t.Fatal(err)
		}
		want := len(ev.queries) * nonLeaf
		rng := rand.New(rand.NewSource(43))
		for step := 0; step < 20; step++ {
			if got := len(ev.reachFlat); got != want {
				t.Fatalf("frac %v step %d: reach block holds %d cells, want %d queries × %d non-leaf states", frac, step, got, len(ev.queries), nonLeaf)
			}
			if cap(ev.savedReach) > want {
				t.Fatalf("frac %v step %d: rollback buffer grew to %d cells, past the %d-cell reach block", frac, step, cap(ev.savedReach), want)
			}
			cs, u, ok := applyRandomOp(o, rng)
			if !ok {
				break
			}
			ev.Reevaluate(cs)
			if rng.Intn(2) == 0 {
				o.Undo(u)
				if err := ev.Rollback(); err != nil {
					t.Fatal(err)
				}
			} else if err := ev.Commit(); err != nil {
				t.Fatal(err)
			}
		}
		for id, r := range ev.MeanReach() {
			if o.States[id].Kind == KindLeaf && r != 0 {
				t.Fatalf("frac %v: leaf %d has mean reach %v, want 0", frac, id, r)
			}
		}
	}
}

// toggleAddParent finds a legal ADD_PARENT of a tag state, for tests
// and benchmarks that apply and undo one operation repeatedly.
func toggleAddParent(t testing.TB, o *Org) (StateID, StateID) {
	t.Helper()
	for _, st := range o.States {
		if st.deleted || st.Kind != KindTag {
			continue
		}
		for _, cand := range o.States {
			if cand.Kind == KindInterior && !cand.deleted && o.CanAddParent(cand.ID, st.ID) {
				return cand.ID, st.ID
			}
		}
	}
	t.Fatal("no legal AddParent on this organization")
	return -1, -1
}
