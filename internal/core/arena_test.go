package core

import (
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"lakenav/internal/lake"
	"lakenav/internal/synth"
	"lakenav/vector"
)

// The flat topic arena must be transparent: every State.topic is a view
// into the Org's contiguous block, the cached norms mirror the arena's
// norm table (Validate pins both), and every navigation quantity
// computed through the arena fast path is bit-identical to the
// pointer-walking reference.

// TestArenaResidency checks that construction places every topic in the
// arena and that Validate's residency invariants hold on a freshly
// built clustered organization and across committed operations.
func TestArenaResidency(t *testing.T) {
	o := kernelTestOrg(t, 21)
	if o.arena == nil {
		t.Fatal("construction did not create a topic arena")
	}
	for _, s := range o.States {
		if s.deleted || s.topic == nil {
			continue
		}
		if &s.topic[0] != &o.arena.vecs[int(s.ID)*o.arena.dim] {
			t.Fatalf("state %d topic is not arena-resident", s.ID)
		}
	}
	rng := rand.New(rand.NewSource(23))
	for step := 0; step < 8; step++ {
		if _, _, ok := applyRandomOp(o, rng); !ok {
			break
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestArenaRebindAfterGrowth drives ApplyLakeBatch until the arena's
// backing array must reallocate and checks every pre-existing topic
// view survived the rebind with identical values (Validate additionally
// pins the view identity).
func TestArenaRebindAfterGrowth(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[StateID]vector.Vector)
	for _, s := range o.States {
		if s.topic != nil {
			before[s.ID] = s.topic.Clone()
		}
	}
	capBefore := cap(o.arena.vecs)
	for i := 0; cap(o.arena.vecs) == capBefore && i < 64; i++ {
		name := "grow" + strings.Repeat("x", i+1)
		applyBatch(t, l, o, []lake.TableChange{
			{Name: name, Tags: []string{"fishery"}, Attrs: []lake.AttrSpec{
				{Name: "col", Values: []string{"fisha", "fishb"}},
			}},
		}, nil)
	}
	if cap(o.arena.vecs) == capBefore {
		t.Fatal("batches never grew the arena backing array")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	for id, want := range before {
		got := o.States[id].topic
		if got == nil {
			continue // topic legitimately recomputed to unset
		}
		for i := range want {
			// Interior topics may have changed value (new members joined
			// their domains); leaves must be value-identical.
			if o.States[id].Kind == KindLeaf && got[i] != want[i] {
				t.Fatalf("state %d leaf topic[%d] changed across rebind: %v -> %v", id, i, want[i], got[i])
			}
		}
	}
}

// TestKernelHotPathZeroAllocs pins the arena kernels at zero per-call
// allocations with caller-provided scratch — the property that lets
// evaluator workers run without malloc/GC contention — without a cosine
// memo row and with one (both the store and the reuse path), and the
// evaluator's transition-memo helpers reading and refilling rows.
func TestKernelHotPathZeroAllocs(t *testing.T) {
	o := kernelTestOrg(t, 31)
	topic := o.State(o.Leaf(o.Attrs()[0])).Topic()
	norm := vector.Norm(topic)
	probs := make([]float64, o.maxFanOut())
	reach := make([]float64, len(o.States))
	attr := o.Attrs()[1]

	if n := testing.AllocsPerRun(100, func() {
		o.transitionsInto(o.Root, topic, norm, nil, probs)
	}); n != 0 {
		t.Errorf("transitionsInto allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		o.reachProbsInto(topic, norm, nil, reach, probs)
	}); n != 0 {
		t.Errorf("reachProbsInto allocates %.1f per call, want 0", n)
	}
	o.reachProbsInto(topic, norm, nil, reach, probs)
	if n := testing.AllocsPerRun(100, func() {
		o.leafProbInto(attr, topic, norm, nil, nil, reach, probs)
	}); n != 0 {
		t.Errorf("leafProbInto allocates %.1f per call, want 0", n)
	}

	sims := make([]float64, len(o.States))
	if n := testing.AllocsPerRun(100, func() {
		fillNaN(sims)
		o.transitionsInto(o.Root, topic, norm, sims, probs)
	}); n != 0 {
		t.Errorf("transitionsInto storing into a memo row allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		fillNaN(sims)
		o.reachProbsInto(topic, norm, sims, reach, probs)
	}); n != 0 {
		t.Errorf("reachProbsInto storing into a memo row allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		o.reachProbsInto(topic, norm, sims, reach, probs)
	}); n != 0 {
		t.Errorf("reachProbsInto reusing a memo row allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		o.leafProbInto(attr, topic, norm, sims, nil, reach, probs)
	}); n != 0 {
		t.Errorf("leafProbInto with a memo row allocates %.1f per call, want 0", n)
	}
	trans := o.newTransMemo()
	if n := testing.AllocsPerRun(100, func() {
		fillNaN(trans.cells)
		o.leafProbInto(attr, topic, norm, sims, trans, reach, probs)
	}); n != 0 {
		t.Errorf("leafProbInto filling a transition row allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		o.leafProbInto(attr, topic, norm, sims, trans, reach, probs)
	}); n != 0 {
		t.Errorf("leafProbInto reusing a transition row allocates %.1f per call, want 0", n)
	}

	// The evaluator's transition-memo helpers and its reach sweep, on
	// the plan of a pending re-evaluation: reading rows the sweep filled,
	// and refilling rows marked stale. Re-sweeping query 0 overwrites its
	// saved cells with the post-operation reach, so this evaluator is
	// not checked after the rollback below.
	ev, err := NewEvaluatorWorkers(o, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	np, s := toggleAddParent(t, o)
	cs := o.BeginChanges()
	u := o.AddParentOp(np, s)
	o.EndChanges()
	ev.Reevaluate(cs)
	if len(ev.affectedTopo) == 0 {
		t.Fatal("the operation affected no state")
	}
	markPlanStale := func() {
		for _, p := range ev.planPairParent {
			ev.trans[p][0] = math.NaN()
		}
		for _, p := range o.States[ev.queryLeaf[0]].Parents {
			ev.trans[p][0] = math.NaN()
		}
	}
	for _, fill := range []bool{false, true} {
		if n := testing.AllocsPerRun(100, func() {
			if fill {
				markPlanStale()
			}
			ev.transRow(ev.planPairParent[0], 0)
			ev.sweep(0, 1)
			ev.leafProbMemo(0)
		}); n != 0 {
			t.Errorf("transition-memo helpers (refill %v) allocate %.1f per call, want 0", fill, n)
		}
	}
	o.Undo(u)
	if err := ev.Rollback(); err != nil {
		t.Fatal(err)
	}
}

// TestEvaluatorParityMatrix is the arena-path equivalence matrix: over
// seeds × worker counts × exact/approximate modes, evaluator results
// must be bit-identical (==, not within tolerance) to the workers=1
// run, and the workers=1 run must match the naive pointer-walking
// reference within 1e-12 across a committed operation sequence.
func TestEvaluatorParityMatrix(t *testing.T) {
	for _, seed := range []int64{5, 17} {
		for _, approx := range []bool{false, true} {
			frac := 0.0
			if approx {
				frac = 0.4
			}
			build := func(workers int) (*Org, *Evaluator) {
				o := kernelTestOrg(t, seed)
				var rng *rand.Rand
				if approx {
					rng = rand.New(rand.NewSource(seed + 100))
				}
				ev, err := NewEvaluatorWorkers(o, frac, rng, workers)
				if err != nil {
					t.Fatal(err)
				}
				return o, ev
			}
			oRef, evRef := build(1)
			for _, workers := range []int{2, 4, 8} {
				o, ev := build(workers)
				if ev.Effectiveness() != evRef.Effectiveness() {
					t.Fatalf("seed %d approx %v workers %d: construction eff %v != %v",
						seed, approx, workers, ev.Effectiveness(), evRef.Effectiveness())
				}
				rng := rand.New(rand.NewSource(seed * 7))
				rngRef := rand.New(rand.NewSource(seed * 7))
				for step := 0; step < 8; step++ {
					cs, _, ok := applyRandomOp(o, rng)
					if !ok {
						break
					}
					csRef, _, _ := applyRandomOp(oRef, rngRef)
					if ev.Reevaluate(cs) != evRef.Reevaluate(csRef) {
						t.Fatalf("seed %d approx %v workers %d step %d: eff diverged",
							seed, approx, workers, step)
					}
					for i := range o.Attrs() {
						if ev.AttrProb(i) != evRef.AttrProb(i) {
							t.Fatalf("seed %d approx %v workers %d step %d attr %d: prob diverged",
								seed, approx, workers, step, i)
						}
					}
					mr, mrRef := ev.MeanReach(), evRef.MeanReach()
					for id := range mr {
						if mr[id] != mrRef[id] {
							t.Fatalf("seed %d approx %v workers %d step %d state %d: mean reach diverged",
								seed, approx, workers, step, id)
						}
					}
					ev.Commit()
					evRef.Commit()
				}
				// Reset the reference org for the next worker count by
				// rebuilding it (each worker count replays the same op
				// sequence from the same start).
				oRef, evRef = build(1)
				rngRef = rand.New(rand.NewSource(seed * 7))
				_ = rngRef
			}
			// The serial arena path agrees with the naive reference.
			oN, _ := build(1)
			assertKernelMatchesNaive(t, oN, -1)
		}
	}
}

// TestIsRepresentativeLeafConcurrent is the -race regression for the
// representative-leaf probe: the set is precomputed at construction, so
// concurrent probes (optimizer traversals sharing an evaluator snapshot)
// must not race a lazy initialization.
func TestIsRepresentativeLeafConcurrent(t *testing.T) {
	o := kernelTestOrg(t, 41)
	ev, err := NewEvaluatorWorkers(o, 0.3, rand.New(rand.NewSource(43)), 2)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, s := range o.States {
		if ev.IsRepresentativeLeaf(s.ID) {
			want++
		}
	}
	if want == 0 {
		t.Fatal("no representative leaves — probe not exercised")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := 0
			for _, s := range o.States {
				if ev.IsRepresentativeLeaf(s.ID) {
					got++
				}
			}
			if got != want {
				t.Errorf("concurrent probe counted %d representative leaves, want %d", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestStaleEvaluatorFailsLoudly: growing the organization after
// evaluator construction (ApplyLakeBatch) must make MeanReach and
// Reevaluate panic instead of silently scoring the new states
// unreachable (the old `top = len(reach)` clamp masked exactly that).
func TestStaleEvaluatorFailsLoudly(t *testing.T) {
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluatorWorkers(o, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev.MeanReach() // fresh: fine
	cs := applyBatch(t, l, o, []lake.TableChange{
		{Name: "harbors", Tags: []string{"fishery", "port"}, Attrs: []lake.AttrSpec{
			{Name: "dock", Values: []string{"fishdock", "fishpier"}},
		}},
	}, nil)
	if len(o.States) == ev.nStates {
		t.Fatal("batch did not grow the organization — staleness not exercised")
	}
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s on a stale evaluator did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("MeanReach", func() { ev.MeanReach() })
	mustPanic("Reevaluate", func() { ev.Reevaluate(cs) })
}

// TestSmallTagCloudEvaluatorAgainstNaive runs the benchmark-shaped
// organization (the one the bench gates measure) through a committed
// operation sequence and pins the arena evaluator to the naive
// reference — the same shape the perf claims are made on.
func TestSmallTagCloudEvaluatorAgainstNaive(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-shape parity is slow")
	}
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := NewEvaluatorWorkers(o, 0, nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(61))
	for step := 0; step < 6; step++ {
		cs, _, ok := applyRandomOp(o, rng)
		if !ok {
			break
		}
		ev.Reevaluate(cs)
		ev.Commit()
	}
	fresh, err := NewEvaluatorWorkers(o, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ev.Effectiveness(), fresh.Effectiveness(); !floatNear(got, want, 1e-9) {
		t.Fatalf("incremental eff %v != fresh %v", got, want)
	}
}

func floatNear(a, b, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d <= tol
}
