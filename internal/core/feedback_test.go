package core

import (
	"math"
	"math/rand"
	"testing"

	"lakenav/vector"
)

func feedbackOrg(t *testing.T) *Org {
	t.Helper()
	l := testLake(t)
	o, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewFeedbackValidation(t *testing.T) {
	o := feedbackOrg(t)
	if _, err := NewFeedback(o, 0); err == nil {
		t.Error("zero prior accepted")
	}
	if _, err := NewFeedback(o, -1); err == nil {
		t.Error("negative prior accepted")
	}
}

func TestFeedbackNoObservationsMatchesModel(t *testing.T) {
	o := feedbackOrg(t)
	f, err := NewFeedback(o, 10)
	if err != nil {
		t.Fatal(err)
	}
	topic := vector.Vector{1, 0, 0, 0}
	model := o.TransitionProbs(o.Root, topic)
	blended := f.TransitionProbs(o.Root, topic)
	for i := range model {
		if math.Abs(model[i]-blended[i]) > 1e-12 {
			t.Fatalf("blended[%d] = %v, model %v without observations", i, blended[i], model[i])
		}
	}
}

func TestFeedbackShiftsTowardObservations(t *testing.T) {
	o := feedbackOrg(t)
	f, err := NewFeedback(o, 5)
	if err != nil {
		t.Fatal(err)
	}
	topic := vector.Vector{1, 0, 0, 0}
	root := o.State(o.Root)
	// Hammer the last child (whatever it is).
	target := root.Children[len(root.Children)-1]
	for i := 0; i < 100; i++ {
		if err := f.Observe(o.Root, target); err != nil {
			t.Fatal(err)
		}
	}
	model := o.TransitionProbs(o.Root, topic)
	blended := f.TransitionProbs(o.Root, topic)
	var ti int
	for i, c := range root.Children {
		if c == target {
			ti = i
		}
	}
	if blended[ti] <= model[ti] {
		t.Errorf("observed child prob %v not above model %v", blended[ti], model[ti])
	}
	if blended[ti] < 0.9 {
		t.Errorf("100 observations vs prior 5 should dominate: %v", blended[ti])
	}
	// Distribution still sums to 1.
	var sum float64
	for _, p := range blended {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("blended distribution sums to %v", sum)
	}
}

func TestFeedbackObserveValidatesEdges(t *testing.T) {
	o := feedbackOrg(t)
	f, _ := NewFeedback(o, 1)
	leaf := o.Leaf(o.Attrs()[0])
	if err := f.Observe(leaf, o.Root); err == nil {
		t.Error("nonexistent edge accepted")
	}
}

func TestFeedbackObservePath(t *testing.T) {
	o := feedbackOrg(t)
	f, _ := NewFeedback(o, 1)
	topic := vector.Vector{1, 0, 0, 0}
	path := o.Walk(topic, rand.New(rand.NewSource(1)))
	if err := f.ObservePath(path); err != nil {
		t.Fatal(err)
	}
	if got := f.Observations(); got != float64(len(path)-1) {
		t.Errorf("Observations = %v, want %d", got, len(path)-1)
	}
}

func TestFeedbackDecay(t *testing.T) {
	o := feedbackOrg(t)
	f, _ := NewFeedback(o, 1)
	target := o.State(o.Root).Children[0]
	for i := 0; i < 8; i++ {
		f.Observe(o.Root, target)
	}
	f.Decay(0.5)
	if got := f.Observations(); math.Abs(got-4) > 1e-9 {
		t.Errorf("Observations after decay = %v, want 4", got)
	}
	// Decaying to nothing clears rows entirely.
	for i := 0; i < 40; i++ {
		f.Decay(0.1)
	}
	if f.Observations() != 0 {
		t.Errorf("Observations after heavy decay = %v", f.Observations())
	}
	// Back to pure model.
	topic := vector.Vector{0, 1, 0, 0}
	model := o.TransitionProbs(o.Root, topic)
	blended := f.TransitionProbs(o.Root, topic)
	for i := range model {
		if math.Abs(model[i]-blended[i]) > 1e-12 {
			t.Fatal("decayed feedback does not match model")
		}
	}
}

func TestFeedbackDecayValidation(t *testing.T) {
	o := feedbackOrg(t)
	f, _ := NewFeedback(o, 1)
	for _, factor := range []float64{0, -0.5, 1.5} {
		if err := f.Decay(factor); err == nil {
			t.Errorf("Decay(%v) returned nil error", factor)
		}
	}
	if err := f.Decay(1); err != nil {
		t.Errorf("Decay(1): %v", err)
	}
}

func TestFeedbackReachProbs(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := NewFeedback(o, 2)
	topic := vector.Vector{1, 0, 0, 0}
	base := o.ReachProbs(topic)
	blended := f.ReachProbs(topic)
	for id := range base {
		if math.Abs(base[id]-blended[id]) > 1e-12 {
			t.Fatal("unobserved feedback reach differs from model reach")
		}
	}
	// Steer all mass at the root toward one child; its subtree's reach
	// must rise.
	root := o.State(o.Root)
	target := root.Children[0]
	for i := 0; i < 200; i++ {
		f.Observe(o.Root, target)
	}
	blended = f.ReachProbs(topic)
	if o.State(target).Kind != KindLeaf && blended[target] <= base[target] {
		t.Errorf("steered child reach %v not above base %v", blended[target], base[target])
	}
}

func TestFeedbackEffectivenessMatchesModelUnobserved(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := NewFeedback(o, 3)
	if a, b := f.Effectiveness(), o.Effectiveness(); math.Abs(a-b) > 1e-12 {
		t.Errorf("unobserved feedback eff %v != model %v", a, b)
	}
}

// Observed counts are per-edge, not per-intent, so concentrated usage
// toward one attribute raises that attribute's blended discovery
// probability — at the expense of intents the traffic ignores. This is
// the Dirichlet blending behaving as designed.
func TestFeedbackConcentratedUsageBoostsTarget(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f, _ := NewFeedback(o, 1)
	target := o.Attrs()[0]
	topic := o.State(o.Leaf(target)).Topic()
	base := o.LeafProb(target, topic, o.ReachProbs(topic))
	// All traffic walks greedily to the target and its leaf.
	for rep := 0; rep < 50; rep++ {
		path := o.Walk(topic, nil)
		if path[len(path)-1] != o.Leaf(target) {
			// Greedy walk may end at a different leaf; force the exact
			// path by observing the leaf edge from its tag parent.
			f.ObservePath(path[:len(path)-1])
			tagParent := o.State(o.Leaf(target)).Parents[0]
			if o.hasEdge(tagParent, o.Leaf(target)) {
				f.Observe(tagParent, o.Leaf(target))
			}
			continue
		}
		if err := f.ObservePath(path); err != nil {
			t.Fatal(err)
		}
	}
	got := f.LeafProb(target, topic, f.ReachProbs(topic))
	if got <= base {
		t.Errorf("concentrated usage leaf prob %v not above model %v", got, base)
	}
}

// assertFeedbackMatchesReference compares all four Feedback methods with
// the naive blended walk of reference_test.go under a few query topics.
func assertFeedbackMatchesReference(t *testing.T, f *Feedback, step int) {
	t.Helper()
	const tol = 1e-12
	o := f.org
	for _, a := range o.Attrs()[:5] {
		topic := o.State(o.Leaf(a)).topic
		for _, s := range o.States {
			if s.deleted || s.Kind == KindLeaf {
				continue
			}
			got, want := f.TransitionProbs(s.ID, topic), naiveBlendedTransitions(f, s.ID, topic)
			for i := range want {
				if math.Abs(got[i]-want[i]) > tol {
					t.Fatalf("step %d state %d child %d: blended %v != reference %v", step, s.ID, i, got[i], want[i])
				}
			}
		}
		reach, wantReach := f.ReachProbs(topic), naiveReachProbs(o, f, topic)
		for id := range wantReach {
			if math.Abs(reach[id]-wantReach[id]) > tol {
				t.Fatalf("step %d state %d: blended reach %v != reference %v", step, id, reach[id], wantReach[id])
			}
		}
		if got, want := f.LeafProb(a, topic, reach), naiveLeafProb(o, f, a, topic, wantReach); math.Abs(got-want) > tol {
			t.Fatalf("step %d attr %d: blended leaf prob %v != reference %v", step, a, got, want)
		}
	}
	if got, want := f.Effectiveness(), naiveEffectiveness(o, f); math.Abs(got-want) > tol {
		t.Fatalf("step %d: blended effectiveness %v != reference %v", step, got, want)
	}
}

// Feedback runs on the same kernels as Org: with no observations every
// method returns exactly (==) the pure model's answer, and after random
// Observe / ObservePath / Decay sequences every method matches the naive
// blended reference within 1e-12.
func TestFeedbackMatchesReference(t *testing.T) {
	for _, seed := range []int64{3, 9} {
		o := kernelTestOrg(t, seed)
		f, err := NewFeedback(o, 1.5)
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range o.Attrs()[:5] {
			topic := o.State(o.Leaf(a)).topic
			for _, s := range o.States {
				got, want := f.TransitionProbs(s.ID, topic), o.TransitionProbs(s.ID, topic)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("seed %d state %d: unobserved transition %v != model %v", seed, s.ID, got[i], want[i])
					}
				}
			}
			reach, modelReach := f.ReachProbs(topic), o.ReachProbs(topic)
			for id := range modelReach {
				if reach[id] != modelReach[id] {
					t.Fatalf("seed %d state %d: unobserved reach %v != model %v", seed, id, reach[id], modelReach[id])
				}
			}
			if got, want := f.LeafProb(a, topic, reach), o.LeafProb(a, topic, modelReach); got != want {
				t.Fatalf("seed %d attr %d: unobserved leaf prob %v != model %v", seed, a, got, want)
			}
		}
		if got, want := f.Effectiveness(), o.Effectiveness(); got != want {
			t.Fatalf("seed %d: unobserved effectiveness %v != model %v", seed, got, want)
		}

		var branching []StateID
		for _, s := range o.States {
			if !s.deleted && len(s.Children) > 0 {
				branching = append(branching, s.ID)
			}
		}
		rng := rand.New(rand.NewSource(seed * 13))
		for step := 0; step < 10; step++ {
			switch rng.Intn(3) {
			case 0:
				s := o.State(branching[rng.Intn(len(branching))])
				c := s.Children[rng.Intn(len(s.Children))]
				for n := rng.Intn(5); n >= 0; n-- {
					if err := f.Observe(s.ID, c); err != nil {
						t.Fatal(err)
					}
				}
			case 1:
				a := o.Attrs()[rng.Intn(len(o.Attrs()))]
				if err := f.ObservePath(o.Walk(o.State(o.Leaf(a)).topic, rng)); err != nil {
					t.Fatal(err)
				}
			case 2:
				if err := f.Decay(0.3 + 0.6*rng.Float64()); err != nil {
					t.Fatal(err)
				}
			}
			assertFeedbackMatchesReference(t, f, step)
		}
		if f.Observations() == 0 {
			t.Fatalf("seed %d: no observations survived — blending not exercised", seed)
		}
	}
}
