package core

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lakenav/internal/faultinject"
	"lakenav/internal/synth"
)

func restartsLake(t *testing.T) *synth.TagCloud {
	t.Helper()
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	return tc
}

// Canceling a multi-restart search mid-flight must degrade gracefully:
// the in-flight restart stops at its next boundary, later restarts are
// skipped, and the result is the best organization found so far with
// Truncated set — never an error, never nil. This pins the bug where
// the restart loop ignored cancellation entirely and ran every
// remaining restart to completion.
func TestOptimizeRestartsContextCancelMidRestart(t *testing.T) {
	tc := restartsLake(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	build := func() (*Org, error) { return NewClustered(tc.Lake, BuildConfig{}) }
	cfg := OptimizeConfig{
		MaxIterations: 200,
		RepFraction:   0.1,
		Seed:          1,
		Probe:         faultinject.CancelAtIteration(cancel, 5),
	}
	org, stats, err := optimizeRestartsContext(ctx, build, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if org == nil || stats == nil {
		t.Fatal("canceled restarts returned nil result")
	}
	if !stats.Truncated {
		t.Fatal("canceled restarts not marked truncated")
	}
	if err := org.Validate(); err != nil {
		t.Fatalf("best-so-far organization invalid: %v", err)
	}
	if stats.FinalEff < stats.InitialEff-1e-12 {
		t.Errorf("best-so-far below initial effectiveness: %v -> %v",
			stats.InitialEff, stats.FinalEff)
	}
}

// Cancellation during a later restart keeps the completed restarts'
// best: the truncated result equals what the same seeds produce when
// only the completed restarts run.
func TestOptimizeRestartsContextKeepsCompletedBest(t *testing.T) {
	tc := restartsLake(t)
	base := OptimizeConfig{MaxIterations: 40, RepFraction: 0.1, Seed: 1}

	// Reference: the first two restarts, uncanceled.
	ref, refStats, err := optimizeRestartsContext(context.Background(),
		func() (*Org, error) { return NewClustered(tc.Lake, BuildConfig{}) }, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	if refStats.Truncated {
		t.Fatal("reference restarts truncated")
	}

	// Canceled run: restarts 0 and 1 complete, the build for restart 2
	// pulls the plug, so restart 2 contributes only its initial state.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	build := func() (*Org, error) {
		calls++
		if calls == 3 {
			cancel()
		}
		return NewClustered(tc.Lake, BuildConfig{})
	}
	org, stats, err := optimizeRestartsContext(ctx, build, base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Fatal("canceled run not marked truncated")
	}
	if calls > 3 {
		t.Errorf("restarts after cancellation still ran (%d builds)", calls)
	}
	if err := org.Validate(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(stats.FinalEff-refStats.FinalEff) > 1e-12 {
		t.Errorf("truncated best %v != completed-restarts best %v",
			stats.FinalEff, refStats.FinalEff)
	}
	_ = ref
}

// Each restart must checkpoint to its own file. Before the fix every
// restart shared cfg.Checkpoint.Path, so restart r clobbered restart
// r-1's snapshot and a resume could continue one restart's search from
// another's state. The derived paths carry each restart's own seed.
func TestRestartCheckpointsDoNotCollide(t *testing.T) {
	tc := restartsLake(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "search.ck")
	const restarts = 3
	cfg := OptimizeConfig{
		MaxIterations: 400,
		Window:        200,
		Seed:          11,
		Checkpoint:    &CheckpointConfig{Path: base, EveryAccepted: 1},
	}
	_, stats, err := optimizeRestartsContext(context.Background(),
		func() (*Org, error) { return NewClustered(tc.Lake, BuildConfig{}) }, cfg, restarts)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Truncated {
		t.Fatal("uncanceled restarts truncated")
	}
	// The shared base path must stay untouched…
	if _, err := os.Stat(base); !os.IsNotExist(err) {
		t.Errorf("restarts wrote to the shared base path %s", base)
	}
	// …and every restart's own file must exist with that restart's seed.
	for r := 0; r < restarts; r++ {
		path := RestartCheckpointPath(base, r)
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("restart %d checkpoint: %v", r, err)
		}
		want := cfg.Seed + int64(r)*104729
		if ck.Config.Seed != want {
			t.Errorf("restart %d checkpoint seed %d, want %d (clobbered by another restart?)",
				r, ck.Config.Seed, want)
		}
	}
}

// A single-restart run keeps the caller's exact checkpoint path — the
// suffix only appears when there is more than one restart to separate.
func TestSingleRestartKeepsBasePath(t *testing.T) {
	tc := restartsLake(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "single.ck")
	cfg := OptimizeConfig{
		MaxIterations: 400,
		Window:        200,
		Seed:          11,
		Checkpoint:    &CheckpointConfig{Path: base, EveryAccepted: 1},
	}
	_, _, err := optimizeRestartsContext(context.Background(),
		func() (*Org, error) { return NewClustered(tc.Lake, BuildConfig{}) }, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(base); err != nil {
		t.Errorf("single restart did not checkpoint to the base path: %v", err)
	}
}

// Multi-dimensional builds route Restarts through the per-dimension
// searches and clean up every per-restart checkpoint file on untruncated
// completion.
func TestMultiDimRestarts(t *testing.T) {
	tc := restartsLake(t)
	dir := t.TempDir()
	base := filepath.Join(dir, "multi.ck")
	m, stats, err := BuildMultiDimContext(context.Background(), tc.Lake, MultiDimConfig{
		K:          2,
		Optimize:   &OptimizeConfig{MaxIterations: 40, RepFraction: 0.1},
		Seed:       3,
		Restarts:   2,
		Checkpoint: &CheckpointConfig{Path: base, EveryAccepted: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Truncated {
		t.Fatal("uncanceled build truncated")
	}
	for i := range m.Orgs {
		if err := m.Orgs[i].Validate(); err != nil {
			t.Fatalf("dimension %d: %v", i, err)
		}
		if stats[i] == nil {
			t.Fatalf("dimension %d: no stats", i)
		}
	}
	left, err := filepath.Glob(base + "*")
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Errorf("checkpoint files left after clean completion: %v", left)
	}
}

// Resume keeps multi-restart progress: every restart of a dimension
// continues from its own checkpoint file, so a canceled Restarts=2
// build redoes only the work since each restart's last snapshot and
// finishes identical to a never-interrupted build.
func TestMultiDimResumeMultiRestart(t *testing.T) {
	tc := restartsLake(t)
	dir := t.TempDir()
	iterations := 0
	mk := func(base string) MultiDimConfig {
		return MultiDimConfig{
			K:          1,
			Optimize:   &OptimizeConfig{MaxIterations: 400, Window: 200, Probe: func(int) { iterations++ }},
			Seed:       7,
			Restarts:   2,
			Checkpoint: &CheckpointConfig{Path: base, EveryAccepted: 3},
		}
	}

	mU, _, err := BuildMultiDimContext(context.Background(), tc.Lake, mk(filepath.Join(dir, "u.ck")))
	if err != nil {
		t.Fatal(err)
	}
	if mU.Truncated {
		t.Fatal("uninterrupted build truncated")
	}
	uninterrupted := iterations

	// Cancel once restart 1 has checkpointed: restart 0 has finished and
	// left its last snapshot, restart 1 loses its post-snapshot work.
	baseI := filepath.Join(dir, "i.ck")
	r0 := RestartCheckpointPath(DimCheckpointPath(baseI, 0), 0)
	r1 := RestartCheckpointPath(DimCheckpointPath(baseI, 0), 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfgI := mk(baseI)
	cfgI.Optimize.Probe = faultinject.CancelWhen(cancel, func() bool {
		_, err := os.Stat(r1)
		return err == nil
	})
	mHalf, _, err := BuildMultiDimContext(ctx, tc.Lake, cfgI)
	if err != nil {
		t.Fatal(err)
	}
	if !mHalf.Truncated {
		t.Fatal("canceled build not truncated")
	}
	for _, p := range []string{r0, r1} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("interrupted build left no checkpoint to resume: %v", err)
		}
	}

	iterations = 0
	cfgR := mk(baseI)
	cfgR.Resume = true
	mR, statsR, err := BuildMultiDimContext(context.Background(), tc.Lake, cfgR)
	if err != nil {
		t.Fatal(err)
	}
	if mR.Truncated {
		t.Fatal("resumed build truncated")
	}
	if !statsR[0].Resumed {
		t.Error("resumed build did not resume its restarts")
	}
	if iterations >= uninterrupted {
		t.Errorf("resumed build ran %d iterations, uninterrupted %d: no progress kept", iterations, uninterrupted)
	}
	if mR.Fingerprint() != mU.Fingerprint() {
		t.Error("resumed multi-restart build differs from the uninterrupted one")
	}
}

// optimizeRestartsContext runs the restart loop over fresh copies of
// the organization build returns, keeping the most effective result.
func optimizeRestartsContext(ctx context.Context, build func() (*Org, error), cfg OptimizeConfig, restarts int) (*Org, *OptimizeStats, error) {
	return optimizeRestarts(ctx, cfg, restarts, func(rc OptimizeConfig) (*Org, *OptimizeStats, error) {
		org, err := build()
		if err != nil {
			return nil, nil, err
		}
		return OptimizeContext(ctx, org, rc)
	})
}
