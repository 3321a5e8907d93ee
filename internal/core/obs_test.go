package core

import (
	"context"
	"sync"
	"testing"

	"lakenav/internal/synth"
)

func progressTestOrg(t *testing.T) *Org {
	t.Helper()
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// One event per iteration plus one final event, with internally
// consistent counters — the contract the -progress NDJSON stream and
// the navserver build gauges rely on.
func TestOptimizeEmitsProgressEvents(t *testing.T) {
	o := progressTestOrg(t)
	var events []ProgressEvent
	_, stats, err := OptimizeContext(context.Background(), o, OptimizeConfig{
		MaxIterations: 80,
		Seed:          1,
		Progress:      func(p ProgressEvent) { events = append(events, p) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != stats.Iterations+1 {
		t.Fatalf("%d events for %d iterations (want iterations+1)", len(events), stats.Iterations)
	}
	for i, p := range events[:len(events)-1] {
		if p.Final {
			t.Fatalf("event %d marked final", i)
		}
		if p.Iteration != i+1 {
			t.Errorf("event %d iteration = %d", i, p.Iteration)
		}
		if p.Accepted+p.Rejected != p.Iteration {
			t.Errorf("event %d: %d accepted + %d rejected != iteration %d",
				i, p.Accepted, p.Rejected, p.Iteration)
		}
		if p.BestEff < p.CurrentEff-1e-12 {
			t.Errorf("event %d: best %v below current %v", i, p.BestEff, p.CurrentEff)
		}
		if p.ElapsedMS < 0 {
			t.Errorf("event %d: negative elapsed %v", i, p.ElapsedMS)
		}
	}
	last := events[len(events)-1]
	if !last.Final || last.Truncated {
		t.Errorf("closing event = %+v", last)
	}
	if last.Iteration != stats.Iterations || last.BestEff != stats.FinalEff {
		t.Errorf("closing event %+v does not match stats %+v", last, stats)
	}
}

// Observation must never steer: a search with a Progress callback
// follows the exact trajectory of an unobserved one.
func TestProgressDoesNotPerturbSearch(t *testing.T) {
	run := func(progress func(ProgressEvent)) (float64, int) {
		o := progressTestOrg(t)
		_, stats, err := OptimizeContext(context.Background(), o, OptimizeConfig{
			MaxIterations: 60,
			Seed:          42,
			Progress:      progress,
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.FinalEff, stats.Iterations
	}
	effSilent, iterSilent := run(nil)
	effObserved, iterObserved := run(func(ProgressEvent) {})
	if effSilent != effObserved || iterSilent != iterObserved {
		t.Errorf("observed search diverged: eff %v/%v, iterations %d/%d",
			effSilent, effObserved, iterSilent, iterObserved)
	}
}

// A cancelled search closes its event stream with Final+Truncated so
// stream consumers can tell a clean convergence from an interruption.
func TestProgressFinalEventReportsTruncation(t *testing.T) {
	o := progressTestOrg(t)
	ctx, cancel := context.WithCancel(context.Background())
	var last ProgressEvent
	_, stats, err := OptimizeContext(ctx, o, OptimizeConfig{
		Seed: 7,
		Progress: func(p ProgressEvent) {
			last = p
			if p.Iteration == 3 {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Skip("search converged before the cancel landed")
	}
	if !last.Final || !last.Truncated {
		t.Errorf("closing event after cancel = %+v", last)
	}
}

// Multi-dimensional builds stamp each dimension's events, so one
// interleaved consumer can demultiplex the streams.
func TestProgressStampsDimensionAndRestart(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	dims := map[int]bool{}
	_, _, err = BuildMultiDimContext(context.Background(), tc.Lake, MultiDimConfig{
		K:    2,
		Seed: 1,
		Optimize: &OptimizeConfig{
			MaxIterations: 10,
			Progress: func(p ProgressEvent) {
				mu.Lock()
				dims[p.Dim] = true
				mu.Unlock()
			},
		},
		Parallel: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(dims) < 2 {
		t.Errorf("events carried dims %v, want both dimensions", dims)
	}
}

// The evaluator instrumentation is monitoring only, but it must move:
// a Reevaluate bumps the counters the /metrics core section exports.
func TestEvaluatorCountersAdvance(t *testing.T) {
	o := progressTestOrg(t)
	before := metricReevaluates.Value()
	buildsBefore := metricEvaluatorBuilds.Value()
	if _, err := Optimize(o, OptimizeConfig{MaxIterations: 10, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if metricReevaluates.Value() <= before {
		t.Error("reevaluate counter did not advance")
	}
	if metricEvaluatorBuilds.Value() <= buildsBefore {
		t.Error("evaluator build counter did not advance")
	}
}

// The serial fast path of parallelFor sits inside the optimizer's
// innermost loop; its instrumentation must not allocate.
func TestParallelForSerialPathDoesNotAllocate(t *testing.T) {
	// The body closure is hoisted so the measurement sees only
	// parallelFor's own work, not the test's closure allocation.
	body := func(lo, hi int) {}
	if allocs := testing.AllocsPerRun(1000, func() {
		parallelFor(8, 1, body)
	}); allocs != 0 {
		t.Errorf("serial parallelFor allocates %.1f per run, want 0", allocs)
	}
}
