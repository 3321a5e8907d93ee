package experiments

import (
	"lakenav/internal/core"
	"lakenav/internal/stats"
	"lakenav/internal/synth"
)

// Fig3Result reports pruning effectiveness: per-iteration fractions of
// states (Fig 3b) and attributes/domains (Fig 3a) re-evaluated during a
// 1-dim optimization, for the exact-with-pruning evaluator and the
// representative approximation.
type Fig3Result struct {
	// Exact-with-pruning evaluation.
	StatesFrac stats.Summary
	AttrsFrac  stats.Summary
	// Representative approximation: fraction of ALL attributes whose
	// discovery probability is evaluated per iteration (the paper
	// reports this drops to ~6%).
	ApproxAttrsFrac stats.Summary
	Iterations      int
}

// Figure3 reproduces Figure 3: how much of the organization one search
// iteration touches under pruning, on the TagCloud benchmark.
func Figure3(opts Options) (*Fig3Result, error) {
	cfg := tagCloudConfig(opts)
	tc, err := synth.GenerateTagCloud(cfg)
	if err != nil {
		return nil, err
	}

	// run optimizes a fresh clustered org and collects each iteration's
	// visit fractions from the progress stream.
	run := func(repFraction float64) (states, attrs []float64, err error) {
		org, err := core.NewClustered(tc.Lake, core.BuildConfig{})
		if err != nil {
			return nil, nil, err
		}
		oc := optimizeConfig(opts, repFraction)
		oc.Progress = func(p core.ProgressEvent) {
			if !p.Final {
				states = append(states, p.StatesVisitedFrac)
				attrs = append(attrs, p.AttrsVisitedFrac)
			}
		}
		_, err = core.Optimize(org, *oc)
		return states, attrs, err
	}

	exactStates, exactAttrs, err := run(0)
	if err != nil {
		return nil, err
	}
	// In approximate mode the attribute fraction already counts
	// represented members over all attributes, so it is directly
	// comparable.
	_, approxAttrs, err := run(0.1)
	if err != nil {
		return nil, err
	}

	res := &Fig3Result{
		StatesFrac:      stats.Summarize(exactStates),
		AttrsFrac:       stats.Summarize(exactAttrs),
		ApproxAttrsFrac: stats.Summarize(approxAttrs),
		Iterations:      len(exactStates),
	}

	opts.printf("fig3: pruning on TagCloud (%d iterations)\n", res.Iterations)
	opts.printf("states visited/iter (exact+pruning):  %s\n", res.StatesFrac)
	opts.printf("domains visited/iter (exact+pruning): %s\n", res.AttrsFrac)
	opts.printf("domains visited/iter (10%% reps):      %s\n", res.ApproxAttrsFrac)
	return res, nil
}
