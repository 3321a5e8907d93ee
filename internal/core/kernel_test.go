package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"lakenav/internal/lake"
	"lakenav/internal/synth"
	"lakenav/vector"
)

// kernelTestOrg builds a clustered organization over a small seeded
// synthetic lake — large enough to have multi-level structure, small
// enough that full naive evaluations stay cheap.
func kernelTestOrg(t *testing.T, seed int64) *Org {
	t.Helper()
	cfg := synth.SmallTagCloudConfig()
	cfg.Tags = 16
	cfg.Attributes = 90
	cfg.MaxValues = 60
	cfg.Dim = 16
	cfg.SuperTopics = 4
	cfg.Seed = seed
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// assertKernelMatchesNaive compares every kernel-path quantity against
// its naive reference on the organization's current shape.
func assertKernelMatchesNaive(t *testing.T, o *Org, step int) {
	t.Helper()
	const tol = 1e-12
	// Per-state transition distributions under a few query topics.
	var queryTopics []vector.Vector
	for _, a := range o.Attrs() {
		queryTopics = append(queryTopics, o.State(o.Leaf(a)).topic)
		if len(queryTopics) == 5 {
			break
		}
	}
	for _, topic := range queryTopics {
		for _, s := range o.States {
			if s.deleted || s.Kind == KindLeaf {
				continue
			}
			got := o.TransitionProbs(s.ID, topic)
			want := naiveChildTransitions(o, s.ID, topic)
			for i := range want {
				if math.Abs(got[i]-want[i]) > tol {
					t.Fatalf("step %d state %d child %d: kernel %v != naive %v",
						step, s.ID, i, got[i], want[i])
				}
			}
		}
		gotReach := o.reachProbs(topic)
		wantReach := naiveReachProbs(o, topic)
		for id := range wantReach {
			if math.Abs(gotReach[id]-wantReach[id]) > tol {
				t.Fatalf("step %d state %d: kernel reach %v != naive %v",
					step, id, gotReach[id], wantReach[id])
			}
		}
	}
	// Per-attribute discovery probabilities and the full objective.
	probs := o.AttrDiscoveryProbs()
	for i, a := range o.Attrs() {
		leaf := o.State(o.Leaf(a))
		want := naiveLeafProb(o, a, leaf.topic, naiveReachProbs(o, leaf.topic))
		if math.Abs(probs[i]-want) > tol {
			t.Fatalf("step %d attr %d: kernel P(A|O) %v != naive %v", step, i, probs[i], want)
		}
	}
	if got, want := o.Effectiveness(), naiveEffectiveness(o); math.Abs(got-want) > tol {
		t.Fatalf("step %d: kernel effectiveness %v != naive %v", step, got, want)
	}
}

// The kernel's central property: with cached norms, every navigation
// quantity — transition softmax, reach, discovery probability,
// effectiveness — agrees with the naive two-Norms-per-cosine path
// within 1e-12, on freshly built organizations and after arbitrary
// committed search operations (which exercise the accumulator-side norm
// maintenance).
func TestSimilarityKernelMatchesNaive(t *testing.T) {
	for _, seed := range []int64{1, 7} {
		o := kernelTestOrg(t, seed)
		assertKernelMatchesNaive(t, o, -1)
		rng := rand.New(rand.NewSource(seed * 31))
		for step := 0; step < 6; step++ {
			if _, _, ok := applyRandomOp(o, rng); !ok {
				break
			}
			if err := o.Validate(); err != nil {
				t.Fatalf("seed %d step %d: %v", seed, step, err)
			}
			assertKernelMatchesNaive(t, o, step)
		}
	}
}

// Cached norms must survive undo exactly: an operation followed by Undo
// restores both topics and their norms (Validate checks the invariant).
func TestKernelNormInvariantAfterUndo(t *testing.T) {
	o := kernelTestOrg(t, 3)
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 10; step++ {
		_, u, ok := applyRandomOp(o, rng)
		if !ok {
			break
		}
		o.Undo(u)
		if err := o.Validate(); err != nil {
			t.Fatalf("step %d after undo: %v", step, err)
		}
	}
}

// Worker-count invariance: the evaluator's results are bit-identical —
// not merely close — for any pool size, because every worker owns its
// index ranges and reductions run serially in query order.
func TestEvaluatorWorkerCountInvariance(t *testing.T) {
	o1 := kernelTestOrg(t, 11)
	o8 := kernelTestOrg(t, 11)
	ev1, err := NewEvaluatorWorkers(o1, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	ev8, err := NewEvaluatorWorkers(o8, 0, nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	if ev1.Effectiveness() != ev8.Effectiveness() {
		t.Fatalf("construction: workers=1 eff %v != workers=8 eff %v",
			ev1.Effectiveness(), ev8.Effectiveness())
	}
	rng1 := rand.New(rand.NewSource(13))
	rng8 := rand.New(rand.NewSource(13))
	for step := 0; step < 12; step++ {
		cs1, u1, ok := applyRandomOp(o1, rng1)
		if !ok {
			break
		}
		cs8, u8, _ := applyRandomOp(o8, rng8)
		e1 := ev1.Reevaluate(cs1)
		e8 := ev8.Reevaluate(cs8)
		if e1 != e8 {
			t.Fatalf("step %d: workers=1 eff %v != workers=8 eff %v", step, e1, e8)
		}
		for i := range o1.Attrs() {
			if ev1.AttrProb(i) != ev8.AttrProb(i) {
				t.Fatalf("step %d attr %d: workers=1 %v != workers=8 %v",
					step, i, ev1.AttrProb(i), ev8.AttrProb(i))
			}
		}
		mr1, mr8 := ev1.MeanReach(), ev8.MeanReach()
		for id := range mr1 {
			if mr1[id] != mr8[id] {
				t.Fatalf("step %d state %d: mean reach %v != %v", step, id, mr1[id], mr8[id])
			}
		}
		if step%3 == 2 {
			o1.Undo(u1)
			ev1.Rollback()
			o8.Undo(u8)
			ev8.Rollback()
		} else {
			ev1.Commit()
			ev8.Commit()
		}
	}
}

// The incremental evaluator against the reference: in exact mode, after
// every committed or rolled-back random operation, Reevaluate's
// effectiveness (and, after a rollback, the restored one) matches the
// naive Eq 6 evaluation of the organization as it then stands.
func TestReevaluateMatchesReference(t *testing.T) {
	const tol = 1e-12
	for _, seed := range []int64{5, 17, 23, 41} {
		o := kernelTestOrg(t, seed)
		ev, err := NewEvaluatorWorkers(o, 0, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed * 29))
		for step := 0; step < 12; step++ {
			cs, u, ok := applyRandomOp(o, rng)
			if !ok {
				break
			}
			if got, want := ev.Reevaluate(cs), naiveEffectiveness(o); math.Abs(got-want) > tol {
				t.Fatalf("seed %d step %d: Reevaluate %v != reference %v", seed, step, got, want)
			}
			if step%3 == 2 {
				o.Undo(u)
				if err := ev.Rollback(); err != nil {
					t.Fatal(err)
				}
			} else if err := ev.Commit(); err != nil {
				t.Fatal(err)
			}
			if got, want := ev.Effectiveness(), naiveEffectiveness(o); math.Abs(got-want) > tol {
				t.Fatalf("seed %d step %d: resolved eff %v != reference %v", seed, step, got, want)
			}
		}
	}
}

// Race coverage for the parallel evaluator: force a multi-goroutine
// pool and drive full Reevaluate/Commit and Reevaluate/Rollback cycles
// plus MeanReach reductions. Run with -race this pins the ownership
// discipline (per-query rows, fixed rollback-log segments, serial
// compaction); without -race it still checks the caches stay exact.
func TestEvaluatorParallelReevaluateRace(t *testing.T) {
	// The full small TagCloud keeps query count × pruned work above the
	// serial-work floor, so Reevaluate genuinely forks workers here.
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
	rng := rand.New(rand.NewSource(19))
	for step := 0; step < 20; step++ {
		effBefore := ev.Effectiveness()
		cs, u, ok := applyRandomOp(o, rng)
		if !ok {
			break
		}
		ev.Reevaluate(cs)
		ev.MeanReach()
		if step%2 == 1 {
			o.Undo(u)
			if err := ev.Rollback(); err != nil {
				t.Fatal(err)
			}
			if ev.Effectiveness() != effBefore {
				t.Fatalf("step %d: rollback eff %v != %v", step, ev.Effectiveness(), effBefore)
			}
			continue
		}
		if err := ev.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// After the cycle storm the caches must still match a fresh exact
	// evaluation of the final organization.
	fresh, err := NewEvaluatorWorkers(o, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(ev.Effectiveness() - fresh.Effectiveness()); d > 1e-9 {
		t.Fatalf("post-storm eff %v != fresh %v", ev.Effectiveness(), fresh.Effectiveness())
	}
}

// Eq 6 divides by the lake's live tables: after a batch that tombstones
// tables, the exact kernel, the incremental evaluator, the
// one-dimensional multi-dimensional form and the reference all agree.
func TestEffectivenessSkipsTombstones(t *testing.T) {
	const tol = 1e-12
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	applyBatch(t, l, o, []lake.TableChange{
		{Name: "mills", Tags: []string{"grain"}, Attrs: []lake.AttrSpec{
			{Name: "mill", Values: []string{"graind", "graine"}},
		}},
	}, []string{"urban", "inspections"})
	ev, err := NewEvaluator(o, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := naiveEffectiveness(o)
	for name, got := range map[string]float64{
		"Org":       o.Effectiveness(),
		"Evaluator": ev.Effectiveness(),
		"MultiDim":  (&MultiDim{Lake: l, Orgs: []*Org{o}}).Effectiveness(),
	} {
		if math.Abs(got-want) > tol {
			t.Errorf("%s effectiveness %v != reference %v", name, got, want)
		}
	}
}

// tombstonedLake is a small seeded TagCloud lake with every fifth table
// removed, so table iteration must skip tombstones.
func tombstonedLake(t *testing.T, seed int64) *lake.Lake {
	t.Helper()
	cfg := synth.SmallTagCloudConfig()
	cfg.Tags = 16
	cfg.Attributes = 90
	cfg.MaxValues = 60
	cfg.Dim = 16
	cfg.SuperTopics = 4
	cfg.Seed = seed
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var remove []string
	for i, tb := range tc.Lake.Tables {
		if i%5 == 2 {
			remove = append(remove, tb.Name)
		}
	}
	if _, err := tc.Lake.ApplyChanges(nil, remove); err != nil {
		t.Fatal(err)
	}
	return tc.Lake
}

// Table discovery against the reference: Org.TableProb is Eq 5,
// MultiDim.TableProb is Eq 8 and MultiDim.Effectiveness is its mean
// over the live tables, on lakes with tombstones and K = 1, 2, 3.
func TestTableProbMatchesReference(t *testing.T) {
	const tol = 1e-12
	for _, seed := range []int64{3, 11, 29} {
		l := tombstonedLake(t, seed)
		for k := 1; k <= 3; k++ {
			m, _, err := BuildMultiDim(l, MultiDimConfig{K: k, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for d, o := range m.Orgs {
				probs, ref := o.AttrDiscoveryProbs(), naiveAttrProbs(o)
				for _, tb := range l.Tables {
					if got, want := o.TableProb(tb, probs), naiveTableProb(tb, ref); math.Abs(got-want) > tol {
						t.Fatalf("seed %d K=%d dim %d table %s: Eq 5 %v != reference %v", seed, k, d, tb.Name, got, want)
					}
				}
			}
			probs, ref := m.AttrProbs(), naiveMultiDimAttrProbs(m)
			for _, tb := range l.Tables {
				if got, want := m.TableProb(tb, probs), naiveTableProb(tb, ref); math.Abs(got-want) > tol {
					t.Fatalf("seed %d K=%d table %s: Eq 8 %v != reference %v", seed, k, tb.Name, got, want)
				}
			}
			if got, want := m.Effectiveness(), naiveMeanTableProb(l, ref); math.Abs(got-want) > tol {
				t.Fatalf("seed %d K=%d: MultiDim effectiveness %v != reference %v", seed, k, got, want)
			}
		}
	}
}

// Arbitrary-topic discovery against the reference: Org.DiscoveryProbs,
// which shares one reach sweep and one cosine memo row across every
// attribute, matches Definition 1 evaluated naively per attribute under
// the same topic — for random unit topics, the zero topic and means of
// two attribute topics, on fresh organizations (one over a lake with
// tombstoned tables) and after a random operation/undo storm.
func TestDiscoveryProbsMatchesReference(t *testing.T) {
	const tol = 1e-12
	type namedOrg struct {
		name string
		o    *Org
	}
	var orgs []namedOrg
	for _, seed := range []int64{1, 7, 13} {
		orgs = append(orgs, namedOrg{fmt.Sprintf("kernel-%d", seed), kernelTestOrg(t, seed)})
	}
	tomb, err := NewClustered(tombstonedLake(t, 3), BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	orgs = append(orgs, namedOrg{"tombstoned-3", tomb})

	for oi, no := range orgs {
		name, o := no.name, no.o
		rng := rand.New(rand.NewSource(int64(oi+1) * 97))
		attrs := o.Attrs()
		dim := len(o.State(o.Leaf(attrs[0])).topic)
		var topics []vector.Vector
		for i := 0; i < 3; i++ {
			v := make(vector.Vector, dim)
			for j := range v {
				v[j] = rng.NormFloat64()
			}
			topics = append(topics, vector.Scale(v, 1/vector.Norm(v)))
		}
		topics = append(topics, make(vector.Vector, dim))
		for i := 0; i < 3; i++ {
			a := o.State(o.Leaf(attrs[rng.Intn(len(attrs))])).topic
			b := o.State(o.Leaf(attrs[rng.Intn(len(attrs))])).topic
			mean := make(vector.Vector, dim)
			for j := range mean {
				mean[j] = (a[j] + b[j]) / 2
			}
			topics = append(topics, mean)
		}

		check := func(stage string) {
			t.Helper()
			for ti, topic := range topics {
				got := o.DiscoveryProbs(topic)
				reach := naiveReachProbs(o, topic)
				for i, a := range attrs {
					if want := naiveLeafProb(o, a, topic, reach); math.Abs(got[i]-want) > tol {
						t.Fatalf("%s %s topic %d attr %d: DiscoveryProbs %v != reference %v", name, stage, ti, i, got[i], want)
					}
				}
			}
		}
		check("fresh")
		for step := 0; step < 12; step++ {
			_, u, ok := applyRandomOp(o, rng)
			if !ok {
				break
			}
			if step%3 == 2 {
				o.Undo(u)
			}
		}
		check("after op/undo storm")
	}
}

// reachProbs runs the Eq 2–4 sweep into fresh scratch.
func (o *Org) reachProbs(topic vector.Vector) []float64 {
	reach, probs := o.newScratch()
	return o.reachProbsInto(topic, vector.Norm(topic), nil, reach, probs)
}

// leafProb is Definition 1 under topic, given reach from reachProbs.
func (o *Org) leafProb(a lake.AttrID, topic vector.Vector, reach []float64) float64 {
	probs := make([]float64, o.maxFanOut())
	return o.leafProbInto(a, topic, vector.Norm(topic), nil, nil, reach, probs)
}

// discoveryProb is P(A|O) into fresh scratch.
func (o *Org) discoveryProb(a lake.AttrID) float64 {
	reach, probs := o.newScratch()
	return o.discoveryProbInto(a, reach, probs)
}
