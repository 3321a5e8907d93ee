package core

import (
	"math"
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

// countingSource is a copyable rand.Source over the search generator
// that counts the values it hands out and keeps the last one.
type countingSource struct {
	src   searchSource
	draws int
	last  int64
}

func (c *countingSource) Int63() int64 {
	c.draws++
	c.last = c.src.Int63()
	return c.last
}

func (c *countingSource) Seed(seed int64) { c.src.Seed(seed) }

// eq9Accept is the reference acceptance rule of Eq 9: a proposal from
// P(T|O) = p to P(T|O') = pNew is accepted with probability
// min[1, (pNew/p)^exp], decided by the uniform draw u. A negative
// exponent is the greedy rule, which accepts exactly the non-worsening
// proposals.
func eq9Accept(pNew, p, exp, u float64) bool {
	if exp < 0 || p == 0 {
		return pNew >= p
	}
	return u < math.Min(1, math.Pow(pNew/p, exp))
}

// TestProposeAndDecideMatchesEq9 drives proposeAndDecide over every
// live state of a small exact-evaluated organization, two sweeps per
// acceptance exponent, with a counting source. Before each call it
// finds the best candidate's P(T|O') by trial-evaluating the same
// candidates on the same evaluator, and how many values candidate
// picking draws from a copy of the source. The decision must equal
// eq9Accept on the acceptance draw, and that draw must happen exactly
// when P(T|O') < P(T|O) and P(T|O) > 0 with a positive exponent, and
// never otherwise.
func TestProposeAndDecideMatchesEq9(t *testing.T) {
	outcomes := map[bool]int{}
	for _, tc := range []struct {
		exp  float64
		seed int64
	}{
		{-1, 3}, {0.5, 5}, {1, 7}, {200, 11},
	} {
		// FuzzSearchStep's largest organization shape.
		cfg := synth.SmallTagCloudConfig()
		cfg.Tags, cfg.Attributes, cfg.MaxValues = 16, 90, 60
		cfg.Dim, cfg.SuperTopics, cfg.Seed = 16, 4, tc.seed
		lk, err := synth.GenerateTagCloud(cfg)
		if err != nil {
			t.Fatal(err)
		}
		o, err := NewClustered(lk.Lake, BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		ev, err := NewEvaluator(o, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		src := &countingSource{src: *newSearchSource(tc.seed)}
		rng := rand.New(src)
		var sc, trial stepScratch
		downhill := 0
		for sweep := 0; sweep < 2; sweep++ {
			// Levels and reachability are refreshed per sweep, as the
			// search refreshes them per traversal.
			levels, meanReach := o.Levels(), ev.MeanReach()
			for sid := range levels {
				if o.States[sid].deleted || StateID(sid) == o.Root || levels[sid] < 0 {
					continue
				}
				pick := *src
				cands := trial.pickOperations(o, StateID(sid), levels, meanReach, rand.New(&pick))
				pickDraws := pick.draws - src.draws
				p, pNew := ev.Effectiveness(), -1.0
				for _, op := range cands {
					o.recordChanges(&trial.cs)
					undo := op.apply(o)
					o.EndChanges()
					pNew = math.Max(pNew, ev.Reevaluate(&trial.cs))
					o.Undo(undo)
					if err := ev.Rollback(); err != nil {
						t.Fatal(err)
					}
				}

				before := src.draws
				_, accepted, proposed, _, err := proposeAndDecide(o, ev, &sc, StateID(sid), levels, meanReach, rng, tc.exp)
				if err != nil {
					t.Fatal(err)
				}
				if proposed != (len(cands) > 0) {
					t.Fatalf("exp %v state %d: proposed %v with %d candidates", tc.exp, sid, proposed, len(cands))
				}
				drew, wantDraws := src.draws-before-pickDraws, 0
				if proposed && tc.exp > 0 && p > 0 && pNew < p {
					wantDraws = 1
				}
				if drew != wantDraws {
					t.Fatalf("exp %v state %d: acceptance drew %d values for P %v -> %v", tc.exp, sid, drew, p, pNew)
				}
				if !proposed {
					continue
				}
				u := float64(src.last) / (1 << 63)
				if want := eq9Accept(pNew, p, tc.exp, u); accepted != want {
					t.Fatalf("exp %v state %d: accepted %v for P %v -> %v (u %v), Eq 9 says %v", tc.exp, sid, accepted, p, pNew, u, want)
				}
				// The winner is re-applied after the other trials, which
				// may sum in another order: equal to P(T|O') within 1e-12.
				want := p
				if accepted {
					want = pNew
				}
				if got := ev.Effectiveness(); math.Abs(got-want) > 1e-12 {
					t.Fatalf("exp %v state %d: effectiveness %v after the decision, want %v", tc.exp, sid, got, want)
				}
				if drew == 1 {
					downhill++
					outcomes[accepted]++
				}
			}
		}
		if err := o.Validate(); err != nil {
			t.Fatalf("exp %v: %v", tc.exp, err)
		}
		if tc.exp > 0 && downhill == 0 {
			t.Errorf("exp %v: no downhill proposal drew", tc.exp)
		}
	}
	if outcomes[true] == 0 || outcomes[false] == 0 {
		t.Errorf("downhill proposals accepted %d, rejected %d: the draw is not exercised both ways", outcomes[true], outcomes[false])
	}
}
