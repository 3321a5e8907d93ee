package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"lakenav/internal/lake"
	"lakenav/internal/synth"
	"lakenav/vector"
)

// searchStepScript turns the first steps of a math/rand stream into a
// FuzzSearchStep script: two bytes per step, the candidate pick and
// the resolution.
func searchStepScript(seed int64, steps int) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, 2*steps)
	for i := range out {
		out[i] = byte(rng.Intn(256))
	}
	return out
}

// searchStepCandidates lists, in state order, one operation of each
// kind per state that applies to o now: ADD_PARENT under the first
// legal interior state, DELETE_PARENT of the first legal parent, and
// for leaves adding the first legal tag-state parent or dropping the
// first droppable one. FuzzSearchStep and applyRandomOp draw from it.
func searchStepCandidates(o *Org) []candidateOp {
	var ops []candidateOp
	for _, s := range o.States {
		if s.deleted {
			continue
		}
		if s.Kind != KindLeaf {
			for _, n := range o.States {
				if n.Kind == KindInterior && !n.deleted && o.CanAddParent(n.ID, s.ID) {
					ops = append(ops, candidateOp{opAddParent, n.ID, s.ID})
					break
				}
			}
			for _, p := range s.Parents {
				if o.CanDeleteParent(s.ID, p) {
					ops = append(ops, candidateOp{opDeleteParent, s.ID, p})
					break
				}
			}
			continue
		}
		for _, ts := range o.TagStates() {
			if o.CanAddParent(ts, s.ID) {
				ops = append(ops, candidateOp{opAddParent, ts, s.ID})
				break
			}
		}
		for _, p := range s.Parents {
			if o.CanRemoveLeafParent(p, s.ID) {
				ops = append(ops, candidateOp{opRemoveLeafParent, p, s.ID})
				break
			}
		}
	}
	return ops
}

// structureSnapshot is what Org.Undo restores exactly: every state's
// edge sets (child and parent lists may come back reordered), deleted
// flag, domain and support counts. Topics are not in it: the restored
// vector.Running accumulators need not reproduce the old bits.
type structureSnapshot struct {
	children, parents [][]StateID
	deleted           []bool
	dom               [][]lake.AttrID
	sup               [][]int32
}

func snapshotStructure(o *Org) structureSnapshot {
	sorted := func(ids []StateID) []StateID {
		out := slices.Clone(ids)
		slices.Sort(out)
		return out
	}
	var snap structureSnapshot
	for _, s := range o.States {
		snap.children = append(snap.children, sorted(s.Children))
		snap.parents = append(snap.parents, sorted(s.Parents))
		snap.deleted = append(snap.deleted, s.deleted)
		snap.dom = append(snap.dom, slices.Clone(s.dom))
		snap.sup = append(snap.sup, slices.Clone(s.sup))
	}
	return snap
}

// checkReference compares the fast kernels with the naive ones of
// reference_test.go within 1e-12: ev's effectiveness and every AttrProb
// (ev must be exact), then, under the topic of the leaf that pick
// selects, the reach of every state and DiscoveryProbs, which exercises
// its transition memo, and the Eq 1 distribution of the live state with
// children that pick selects.
func checkReference(t *testing.T, o *Org, ev *Evaluator, pick int, stage string) {
	t.Helper()
	const tol = 1e-12
	want := naiveAttrProbs(o)
	if got, w := ev.Effectiveness(), naiveMeanTableProb(o.Lake, want); math.Abs(got-w) > tol {
		t.Fatalf("%s: eff %v != reference %v", stage, got, w)
	}
	attrs := o.Attrs()
	for i, a := range attrs {
		if got := ev.AttrProb(i); math.Abs(got-want[a]) > tol {
			t.Fatalf("%s: attr %d prob %v != reference %v", stage, i, got, want[a])
		}
	}
	topic := o.States[o.Leaf(attrs[pick%len(attrs)])].topic
	reach := naiveReachProbs(o, topic)
	scratch, probs := o.newScratch()
	for id, got := range o.reachProbsInto(topic, vector.Norm(topic), nil, scratch, probs) {
		if math.Abs(got-reach[id]) > tol {
			t.Fatalf("%s: state %d reach %v != reference %v", stage, id, got, reach[id])
		}
	}
	for i, got := range o.DiscoveryProbs(topic) {
		if w := naiveLeafProb(o, attrs[i], topic, reach); math.Abs(got-w) > tol {
			t.Fatalf("%s: DiscoveryProbs[%d] %v != reference %v", stage, i, got, w)
		}
	}
	var parents []StateID
	for _, s := range o.States {
		if !s.deleted && len(s.Children) > 0 {
			parents = append(parents, s.ID)
		}
	}
	s := parents[pick%len(parents)]
	got, w := o.TransitionProbs(s, topic), naiveChildTransitions(o, s, topic)
	if len(got) != len(w) {
		t.Fatalf("%s: state %d has %d transitions, reference %d", stage, s, len(got), len(w))
	}
	for i := range got {
		if math.Abs(got[i]-w[i]) > tol {
			t.Fatalf("%s: state %d transition %d %v != reference %v", stage, s, i, got[i], w[i])
		}
	}
}

// FuzzSearchStep drives the local search's cycle — apply an operation,
// Reevaluate, then Commit, or Undo and Rollback — on a small generated
// TagCloud organization with an exact evaluator. The inputs are the
// lake seed, its size (10 gives the kernelTestOrg shape), the evaluator
// pool size and a script of (candidate pick, resolution) byte pairs.
// After every step it checks the incremental evaluator against a fresh
// one (1e-9, as TestIncrementalMatchesFullRecompute) and against the
// naive kernels of reference_test.go (1e-12): effectiveness, every
// AttrProb, every state's reach and DiscoveryProbs under one leaf's
// topic, and the Eq 1 distribution of one live state. It also checks that Rollback puts
// back effectiveness, every AttrProb and MeanReach bit for bit, that
// Undo restores edge sets, deleted flags and domains exactly, that
// domains and support counts equal the naive recount, and Validate.
func FuzzSearchStep(f *testing.F) {
	// The organizations and random streams of the evaluator and domain
	// tests: TestIncrementalMatchesFullRecompute (17),
	// TestRollbackRestoresExactly (19), TestEvaluatorSimMemoCoherent
	// (org 5, stream 41, 4 workers), TestEvaluatorTransitionMemoCoherent
	// (org 5, stream 43) and TestDomainMaintenanceMatchesReference (3 and
	// 41), plus orgs 3 and 11 on 2 workers.
	f.Add(uint8(17), uint8(10), uint8(1), searchStepScript(17, 25))
	f.Add(uint8(19), uint8(10), uint8(1), searchStepScript(19, 20))
	f.Add(uint8(5), uint8(10), uint8(4), searchStepScript(41, 24))
	f.Add(uint8(5), uint8(10), uint8(4), searchStepScript(43, 40))
	f.Add(uint8(3), uint8(10), uint8(2), searchStepScript(3, 30))
	f.Add(uint8(11), uint8(10), uint8(2), searchStepScript(11, 30))
	f.Add(uint8(41), uint8(4), uint8(1), searchStepScript(41, 30))
	f.Add(uint8(2), uint8(0), uint8(3), []byte{0, 1, 7, 1, 255, 0, 3, 1})
	f.Fuzz(func(t *testing.T, seed, size, workers uint8, script []byte) {
		const maxSteps = 40
		if len(script) > 2*maxSteps {
			script = script[:2*maxSteps]
		}
		cfg := synth.SmallTagCloudConfig()
		cfg.Tags = 6 + int(size%11)
		cfg.Attributes = 30 + 6*int(size%11)
		cfg.MaxValues = 60
		cfg.Dim = 16
		cfg.SuperTopics = 4
		cfg.Seed = int64(seed)
		tc, err := synth.GenerateTagCloud(cfg)
		if err != nil {
			t.Skip(err)
		}
		o, err := NewClustered(tc.Lake, BuildConfig{})
		if err != nil {
			t.Skip(err)
		}
		ev, err := NewEvaluatorWorkers(o, 0, nil, 1+int(workers%4))
		if err != nil {
			t.Fatal(err)
		}
		attrProbs := func() []float64 {
			out := make([]float64, len(o.Attrs()))
			for i := range out {
				out[i] = ev.AttrProb(i)
			}
			return out
		}
		check := func(step int, stage string) {
			t.Helper()
			fresh, err := NewEvaluatorWorkers(o, 0, nil, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ev.Effectiveness(), fresh.Effectiveness(); math.Abs(got-want) > 1e-9 {
				t.Fatalf("step %d %s: incremental eff %v != fresh %v", step, stage, got, want)
			}
			for i := range o.Attrs() {
				if got, want := ev.AttrProb(i), fresh.AttrProb(i); math.Abs(got-want) > 1e-9 {
					t.Fatalf("step %d %s: attr %d incremental %v != fresh %v", step, stage, i, got, want)
				}
			}
			checkReference(t, o, ev, step+1, fmt.Sprintf("step %d %s", step, stage))
			assertDomainsMatchReference(t, o, stage)
		}
		check(-1, "construction")
		var cs ChangeSet
		for step := 0; 2*step+1 < len(script); step++ {
			cands := searchStepCandidates(o)
			if len(cands) == 0 {
				return
			}
			op := cands[int(script[2*step])%len(cands)]
			effBefore, probsBefore, reachBefore := ev.Effectiveness(), attrProbs(), ev.MeanReach()
			structBefore := snapshotStructure(o)

			o.recordChanges(&cs)
			u := op.apply(o)
			o.EndChanges()
			ev.Reevaluate(&cs)
			check(step, "reevaluate")
			if script[2*step+1]&1 == 0 {
				if err := ev.Commit(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			o.Undo(u)
			if err := ev.Rollback(); err != nil {
				t.Fatal(err)
			}
			if got := snapshotStructure(o); !reflect.DeepEqual(got, structBefore) {
				t.Fatalf("step %d: Undo of %+v did not restore edge sets, deleted flags and domains", step, op)
			}
			if got := ev.Effectiveness(); got != effBefore {
				t.Fatalf("step %d: eff %v != %v after rollback", step, got, effBefore)
			}
			for i, p := range attrProbs() {
				if p != probsBefore[i] {
					t.Fatalf("step %d: attr %d prob %v != %v after rollback", step, i, p, probsBefore[i])
				}
			}
			for id, r := range ev.MeanReach() {
				if r != reachBefore[id] {
					t.Fatalf("step %d: state %d mean reach %v != %v after rollback", step, id, r, reachBefore[id])
				}
			}
			check(step, "rollback")
		}
	})
}
