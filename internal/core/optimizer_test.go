package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lakenav/internal/synth"
)

func TestOptimizeImprovesClusteredOrg(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Optimize(o, OptimizeConfig{MaxIterations: 150, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 0 {
		t.Fatal("no operations proposed")
	}
	if stats.FinalEff < stats.InitialEff {
		t.Errorf("optimization degraded effectiveness: %v -> %v",
			stats.InitialEff, stats.FinalEff)
	}
	if stats.Accepted+stats.Rejected != stats.Iterations {
		t.Errorf("accept/reject counts inconsistent: %+v", stats)
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// The cached effectiveness must agree with a direct recomputation.
	direct := o.Effectiveness()
	if diff := stats.FinalEff - direct; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("stats eff %v != direct %v", stats.FinalEff, direct)
	}
}

// Every iteration reports its Figure 3 visit fractions on the progress
// stream: one non-final event per iteration, each fraction in range.
func TestOptimizeRecordsVisitFractions(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var events []ProgressEvent
	stats, err := Optimize(o, OptimizeConfig{MaxIterations: 60, Seed: 2,
		Progress: func(p ProgressEvent) {
			if !p.Final {
				events = append(events, p)
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 0 || len(events) != stats.Iterations {
		t.Fatalf("%d non-final events for %d iterations", len(events), stats.Iterations)
	}
	for i, p := range events {
		if p.Iteration != i+1 {
			t.Errorf("event %d reports iteration %d", i, p.Iteration)
		}
		if p.StatesVisitedFrac <= 0 || p.StatesVisitedFrac > 1.2 {
			t.Errorf("iteration %d states fraction %v out of range", p.Iteration, p.StatesVisitedFrac)
		}
		if p.AttrsVisitedFrac < 0 || p.AttrsVisitedFrac > 1 {
			t.Errorf("iteration %d attrs fraction %v out of range", p.Iteration, p.AttrsVisitedFrac)
		}
	}
}

func TestOptimizeApproximateMode(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Optimize(o, OptimizeConfig{MaxIterations: 100, RepFraction: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations == 0 {
		t.Fatal("no operations proposed in approximate mode")
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	// The exact effectiveness of the approximate-optimized org should
	// still beat (or match) the clustered starting point.
	fresh, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if o.Effectiveness() < fresh.Effectiveness()*0.9 {
		t.Errorf("approximate optimization ended below 90%% of start: %v vs %v",
			o.Effectiveness(), fresh.Effectiveness())
	}
}

func TestOptimizeDeterministicWithSeed(t *testing.T) {
	build := func() float64 {
		tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewClustered(tc.Lake, BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		stats, err := Optimize(o, OptimizeConfig{MaxIterations: 60, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return stats.FinalEff
	}
	if a, b := build(), build(); a != b {
		t.Errorf("same-seed optimizations differ: %v vs %v", a, b)
	}
}

func TestOptimizePlateauTermination(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := Optimize(o, OptimizeConfig{MaxIterations: 100000, Window: 20, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Iterations >= 100000 {
		t.Error("plateau termination never fired")
	}
}

func TestOptimizeRestarts(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*Org, error) { return NewClustered(tc.Lake, BuildConfig{}) }
	org, stats, err := optimizeRestartsContext(context.Background(), build, OptimizeConfig{MaxIterations: 40, RepFraction: 0.1, Seed: 1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if org == nil || stats == nil {
		t.Fatal("nil result")
	}
	if err := org.Validate(); err != nil {
		t.Fatal(err)
	}
	// The multi-start best is at least as good as a single run with the
	// base seed.
	single, err := build()
	if err != nil {
		t.Fatal(err)
	}
	st, err := Optimize(single, OptimizeConfig{MaxIterations: 40, RepFraction: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FinalEff < st.FinalEff-1e-12 {
		t.Errorf("restarts best %v below single %v", stats.FinalEff, st.FinalEff)
	}
	// restarts < 1 clamps.
	if _, _, err := optimizeRestartsContext(context.Background(), build, OptimizeConfig{MaxIterations: 10}, 0); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeRestartsBuildError(t *testing.T) {
	bad := func() (*Org, error) { return nil, errBuild }
	if _, _, err := optimizeRestartsContext(context.Background(), bad, OptimizeConfig{}, 2); err == nil {
		t.Error("build error swallowed")
	}
}

var errBuild = fmt.Errorf("build failed")

// TestPickOperationsZeroAllocs pins candidate assembly at zero
// allocations once its buffers have grown, for a leaf (tag-state
// candidates) and for an interior state (candidates one level up), so
// that proposals add no garbage to a build.
func TestPickOperationsZeroAllocs(t *testing.T) {
	o := kernelTestOrg(t, 5)
	ev, err := NewEvaluatorWorkers(o, 0, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	levels, meanReach := o.Levels(), ev.MeanReach()
	rng := rand.New(rand.NewSource(1))
	var sc stepScratch
	leaf, interior := StateID(-1), StateID(-1)
	for _, s := range o.States {
		switch {
		case leaf < 0 && s.Kind == KindLeaf:
			leaf = s.ID
		case interior < 0 && s.Kind == KindInterior && s.ID != o.Root:
			interior = s.ID
		}
	}
	for _, sid := range []StateID{leaf, interior} {
		if len(sc.pickOperations(o, sid, levels, meanReach, rng)) == 0 {
			t.Fatalf("state %d (%v) has no candidate operation", sid, o.States[sid].Kind)
		}
		if n := testing.AllocsPerRun(100, func() {
			sc.pickOperations(o, sid, levels, meanReach, rng)
		}); n != 0 {
			t.Errorf("pickOperations for state %d (%v) allocates %.1f per call, want 0", sid, o.States[sid].Kind, n)
		}
	}
}
