package core

import (
	"fmt"
	"math/rand"
	"testing"

	"lakenav/internal/synth"
	"lakenav/vector"
)

// Micro-benchmarks of the transition kernel and the parallel evaluator;
// Serial and W4 variants pin the worker pool to one and four goroutines.
// End-to-end construction and serving cost is measured by
// `bash cmd/lakebench/run.sh`, not here.

// benchDims are the topic widths every benchmark here runs at, as
// dim=N sub-benchmarks: 64 is the default model's width (lakenav's
// NewHashed(64, …)) and every lakebench workload's, the production hot
// path; 300 is the pretrained-embedding width the paper navigates
// (fastText), where per-cosine vector work weighs the most.
var benchDims = []int{64, 300}

// forBenchDims runs fn as one sub-benchmark per width in benchDims, on
// a clustered organization over the same seeded lake at that width.
func forBenchDims(b *testing.B, fn func(b *testing.B, o *Org)) {
	for _, dim := range benchDims {
		b.Run(fmt.Sprintf("dim=%d", dim), func(b *testing.B) {
			fn(b, benchOrg(b, dim))
		})
	}
}

func benchOrg(b *testing.B, dim int) *Org {
	b.Helper()
	cfg := synth.SmallTagCloudConfig()
	cfg.Seed = 11
	cfg.Dim = dim
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		b.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		b.Fatal(err)
	}
	return o
}

// benchStatesAndTopic collects the branching states and one query topic.
func benchStatesAndTopic(b *testing.B, o *Org) ([]StateID, vector.Vector) {
	b.Helper()
	var states []StateID
	for _, s := range o.States {
		if !s.deleted && s.Kind != KindLeaf && len(s.Children) > 0 {
			states = append(states, s.ID)
		}
	}
	if len(states) == 0 {
		b.Fatal("no branching states")
	}
	topic := o.State(o.Leaf(o.Attrs()[0])).topic
	return states, topic
}

// benchReevaluate times one ADD_PARENT toggled through Reevaluate,
// Undo and Rollback, in exact mode (rep=0) and in the approximate mode
// lakenav.DefaultConfig builds with (rep=0.1, Config.RepFraction).
func benchReevaluate(b *testing.B, workers int) {
	forBenchDims(b, func(b *testing.B, o *Org) {
		for _, rep := range []float64{0, 0.1} {
			b.Run(fmt.Sprintf("rep=%g", rep), func(b *testing.B) {
				ev, err := NewEvaluatorWorkers(o, rep, rand.New(rand.NewSource(7)), workers)
				if err != nil {
					b.Fatal(err)
				}
				n, s := toggleAddParent(b, o)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs := o.BeginChanges()
					u := o.AddParentOp(n, s)
					o.EndChanges()
					ev.Reevaluate(cs)
					o.Undo(u)
					ev.Rollback()
				}
			})
		}
	})
}

// BenchmarkReevaluate measures one pruned incremental re-evaluation on
// the kernel path with the default worker pool.
func BenchmarkReevaluate(b *testing.B) { benchReevaluate(b, 0) }

// BenchmarkReevaluateSerial pins the pool to one worker, isolating the
// parallelism contribution.
func BenchmarkReevaluateSerial(b *testing.B) { benchReevaluate(b, 1) }

// BenchmarkReevaluateW4 pins the pool to four workers; compare it with
// Serial on a machine with at least four cores.
func BenchmarkReevaluateW4(b *testing.B) { benchReevaluate(b, 4) }

func benchNewEvaluator(b *testing.B, workers int) {
	forBenchDims(b, func(b *testing.B, o *Org) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := NewEvaluatorWorkers(o, 0, nil, workers); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkNewEvaluator measures evaluator construction (a full reach
// sweep per query) with the default worker pool.
func BenchmarkNewEvaluator(b *testing.B) { benchNewEvaluator(b, 0) }

// BenchmarkNewEvaluatorSerial is construction on a single worker.
func BenchmarkNewEvaluatorSerial(b *testing.B) { benchNewEvaluator(b, 1) }

// BenchmarkNewEvaluatorW4 is construction pinned to four workers.
func BenchmarkNewEvaluatorW4(b *testing.B) { benchNewEvaluator(b, 4) }

// BenchmarkTransitionsInto measures the zero-allocation arena kernel
// with caller-owned scratch and no cosine memo; -benchmem must report
// 0 allocs/op.
func BenchmarkTransitionsInto(b *testing.B) {
	forBenchDims(b, func(b *testing.B, o *Org) {
		states, topic := benchStatesAndTopic(b, o)
		norm := vector.Norm(topic)
		probs := make([]float64, o.maxFanOut())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.transitionsInto(states[i%len(states)], topic, norm, nil, probs)
		}
	})
}

// BenchmarkReachProbsInto measures one reach sweep (Eq 2–4) for one
// query with caller-owned scratch and no cosine memo.
func BenchmarkReachProbsInto(b *testing.B) {
	forBenchDims(b, func(b *testing.B, o *Org) {
		_, topic := benchStatesAndTopic(b, o)
		norm := vector.Norm(topic)
		reach, probs := o.newScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.reachProbsInto(topic, norm, nil, reach, probs)
		}
	})
}

// BenchmarkDiscoveryProbInto measures the full discovery-probability
// path for one attribute: reach sweep plus leaf softmax.
func BenchmarkDiscoveryProbInto(b *testing.B) {
	forBenchDims(b, func(b *testing.B, o *Org) {
		attrs := o.Attrs()
		reach, probs := o.newScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.discoveryProbInto(attrs[i%len(attrs)], reach, probs)
		}
	})
}
