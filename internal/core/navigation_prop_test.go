package core

import (
	"math"
	"math/rand"
	"testing"

	"lakenav/internal/synth"
	"lakenav/vector"
)

// Property tests of the navigation model's conservation laws on
// generated lakes and under random structural operations.

func randomTopic(rng *rand.Rand, dim int) vector.Vector {
	v := vector.New(dim)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return vector.Normalize(v)
}

// In any organization (tree or DAG produced by our operations), the
// reach mass arriving at tag states equals 1 for every query: interior
// states always split their mass among non-leaf children, and every
// source-to-sink path ends at a tag state.
func TestTagReachConservation(t *testing.T) {
	cfg := synth.SmallTagCloudConfig()
	cfg.Tags = 20
	cfg.Attributes = 80
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))

	check := func(stage string) {
		t.Helper()
		topic := randomTopic(rng, tc.Lake.Dim())
		reach := o.reachProbs(topic)
		// Sum over tag states weighted by the number of their incoming
		// mass... in a DAG a tag state may receive mass through several
		// parents; total inflow to the tag level is conserved only in
		// trees. What always holds: every reach value is in [0, 1+ε] per
		// path count, root is 1, and no state unreachable from the root
		// carries mass.
		if math.Abs(reach[o.Root]-1) > 1e-12 {
			t.Fatalf("%s: root reach %v", stage, reach[o.Root])
		}
		levels := o.Levels()
		for id, r := range reach {
			if r < -1e-12 {
				t.Fatalf("%s: negative reach %v at %d", stage, r, id)
			}
			if levels[id] == -1 && r != 0 {
				t.Fatalf("%s: unreachable state %d has reach %v", stage, id, r)
			}
		}
	}

	check("initial")
	// Tree invariant before any DAG-forming ops: tag reach sums to 1.
	topic := randomTopic(rng, tc.Lake.Dim())
	reach := o.reachProbs(topic)
	var tagSum float64
	for _, ts := range o.TagStates() {
		tagSum += reach[ts]
	}
	if math.Abs(tagSum-1) > 1e-9 {
		t.Fatalf("tree tag-reach sum = %v", tagSum)
	}

	// Apply a series of random ops; conservation-style invariants must
	// survive every one.
	for step := 0; step < 15; step++ {
		if _, _, ok := applyRandomOp(o, rng); !ok {
			break
		}
		check("after op")
		if err := o.Validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// Discovery probabilities are proper probabilities for every attribute,
// and per-query leaf transitions at a tag state sum to 1.
func TestDiscoveryProbabilityBounds(t *testing.T) {
	cfg := synth.SmallTagCloudConfig()
	cfg.Tags = 15
	cfg.Attributes = 60
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	probs := o.AttrDiscoveryProbs()
	for i, p := range probs {
		if p <= 0 || p > 1 {
			t.Errorf("attr %d discovery prob %v", i, p)
		}
	}
	// Leaf-level softmax at each tag state sums to 1 for any topic.
	rng := rand.New(rand.NewSource(37))
	topic := randomTopic(rng, tc.Lake.Dim())
	for _, ts := range o.TagStates() {
		trans := o.TransitionProbs(ts, topic)
		var sum float64
		for _, p := range trans {
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("tag state %d leaf transitions sum to %v", ts, sum)
		}
	}
}

// The discovery probability of a table never decreases when one of its
// attributes gains an extra tag-state parent path through AddLeafParent
// AND nothing else in the organization competes... in general an extra
// path changes softmax competition, so what must ALWAYS hold is only
// that probabilities remain valid. This test pins the weaker invariant
// under leaf ops.
func TestLeafOpsKeepValidProbabilities(t *testing.T) {
	cfg := synth.SmallTagCloudConfig()
	cfg.Tags = 12
	cfg.Attributes = 50
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	applied := 0
	for step := 0; step < 10; step++ {
		// Find a random legal AddLeafParent.
		attrs := o.Attrs()
		a := attrs[rng.Intn(len(attrs))]
		leaf := o.Leaf(a)
		var target StateID = -1
		for _, ts := range o.TagStates() {
			if o.CanAddParent(ts, leaf) {
				target = ts
				break
			}
		}
		if target < 0 {
			continue
		}
		o.addLeafParentOp(target, leaf)
		applied++
		for i, p := range o.AttrDiscoveryProbs() {
			if p < 0 || p > 1 {
				t.Fatalf("step %d: attr %d prob %v", step, i, p)
			}
		}
	}
	if applied == 0 {
		t.Skip("no applicable leaf ops")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
}
