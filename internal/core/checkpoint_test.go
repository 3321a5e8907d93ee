package core

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lakenav/internal/faultinject"
	"lakenav/internal/synth"
)

// ckOptConfig is the shared search shape for checkpoint tests: a window
// large enough that the search does not plateau before its first
// checkpoint, and a cadence small enough that checkpoints actually
// happen on the small synthetic lake.
func ckOptConfig(path string) OptimizeConfig {
	return OptimizeConfig{
		MaxIterations: 400,
		Window:        200,
		Seed:          11,
		Checkpoint:    &CheckpointConfig{Path: path, EveryAccepted: 3},
	}
}

// onIteration adapts a faultinject hook, which takes the iteration
// count because faultinject cannot import core, to a Progress callback
// that calls it after every completed iteration.
func onIteration(hook func(int)) func(ProgressEvent) {
	return func(p ProgressEvent) {
		if !p.Final {
			hook(p.Iteration)
		}
	}
}

func checkpointLakeOrg(t *testing.T) (*synth.TagCloud, *Org) {
	t.Helper()
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return tc, o
}

// The acceptance property of the whole checkpoint design: kill a search
// mid-flight with context cancellation, resume it from its checkpoint
// file, and the final organization is identical — not merely close — to
// the one an uninterrupted run with the same seed produces.
func TestCheckpointResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	pathU := filepath.Join(dir, "uninterrupted.ck")
	pathI := filepath.Join(dir, "interrupted.ck")

	// Uninterrupted reference run.
	_, orgU0 := checkpointLakeOrg(t)
	orgU, statsU, err := OptimizeContext(context.Background(), orgU0, ckOptConfig(pathU))
	if err != nil {
		t.Fatal(err)
	}
	if statsU.Truncated {
		t.Fatal("uninterrupted run reported truncated")
	}
	if statsU.Checkpoints == 0 {
		t.Fatal("reference run never checkpointed; the test would prove nothing " +
			"(lower EveryAccepted or raise Window)")
	}

	// Interrupted run: cancel at the first iteration after a checkpoint
	// file exists, so some post-checkpoint work is genuinely lost.
	tcI, orgI0 := checkpointLakeOrg(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfgI := ckOptConfig(pathI)
	cfgI.Progress = onIteration(faultinject.CancelWhen(cancel, func() bool {
		_, err := os.Stat(pathI)
		return err == nil
	}))
	orgHalf, statsHalf, err := OptimizeContext(ctx, orgI0, cfgI)
	if err != nil {
		t.Fatal(err)
	}
	if !statsHalf.Truncated {
		t.Fatal("canceled run not marked truncated")
	}
	// Graceful degradation: the truncated result is still a valid, usable
	// organization no worse than the starting point.
	if err := orgHalf.Validate(); err != nil {
		t.Fatalf("truncated organization invalid: %v", err)
	}
	if statsHalf.FinalEff < statsHalf.InitialEff-1e-12 {
		t.Errorf("truncated run below initial effectiveness: %v -> %v",
			statsHalf.InitialEff, statsHalf.FinalEff)
	}

	// Resume from the file and run to completion.
	ck, err := LoadCheckpoint(pathI)
	if err != nil {
		t.Fatal(err)
	}
	orgR, statsR, err := ResumeOptimizeRuntime(context.Background(), tcI.Lake, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !statsR.Resumed {
		t.Error("resumed run not marked resumed")
	}
	if statsR.Truncated {
		t.Error("resumed run marked truncated")
	}

	if d := math.Abs(statsR.FinalEff - statsU.FinalEff); d > 1e-9 {
		t.Errorf("resumed final eff %v != uninterrupted %v (diff %v)",
			statsR.FinalEff, statsU.FinalEff, d)
	}
	if statsR.Iterations != statsU.Iterations ||
		statsR.Accepted != statsU.Accepted ||
		statsR.Rejected != statsU.Rejected {
		t.Errorf("resumed trajectory diverged: %d/%d/%d vs %d/%d/%d (iter/acc/rej)",
			statsR.Iterations, statsR.Accepted, statsR.Rejected,
			statsU.Iterations, statsU.Accepted, statsU.Rejected)
	}
	bu, err := json.Marshal(orgU.Export())
	if err != nil {
		t.Fatal(err)
	}
	br, err := json.Marshal(orgR.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(bu) != string(br) {
		t.Error("resumed organization structure differs from uninterrupted run")
	}
}

// A search canceled before it starts returns its input organization
// untouched — truncated, never an error.
func TestOptimizeContextPreCanceled(t *testing.T) {
	_, o := checkpointLakeOrg(t)
	before := o.Effectiveness()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	got, stats, err := OptimizeContext(ctx, o, OptimizeConfig{MaxIterations: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Error("pre-canceled run not truncated")
	}
	if stats.Iterations != 0 {
		t.Errorf("pre-canceled run iterated %d times", stats.Iterations)
	}
	if math.Abs(got.Effectiveness()-before) > 1e-12 {
		t.Errorf("pre-canceled run changed effectiveness: %v -> %v", before, got.Effectiveness())
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

// CancelAtIteration stops the search at a chosen iteration boundary.
func TestOptimizeContextCancelAtIteration(t *testing.T) {
	_, o := checkpointLakeOrg(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, stats, err := OptimizeContext(ctx, o, OptimizeConfig{
		MaxIterations: 400,
		Window:        200,
		Seed:          5,
		Progress:      onIteration(faultinject.CancelAtIteration(cancel, 10)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Truncated {
		t.Fatal("canceled run not truncated")
	}
	// The probe fires after iteration 10; the search stops at the next
	// boundary check, so only a handful of extra iterations may complete.
	if stats.Iterations < 10 || stats.Iterations > 15 {
		t.Errorf("canceled run did %d iterations, want ~10", stats.Iterations)
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestOptimizeRejectsCheckpointConfig(t *testing.T) {
	_, o := checkpointLakeOrg(t)
	_, err := Optimize(o, OptimizeConfig{Checkpoint: &CheckpointConfig{Path: "x"}})
	if err == nil {
		t.Error("Optimize accepted a checkpoint config")
	}
}

// Torn and tampered checkpoint files must fail loading cleanly, never
// panic or resume from garbage.
func TestLoadCheckpointRejectsCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "search.ck")

	tc, o := checkpointLakeOrg(t)
	_ = tc
	ck := &Checkpoint{
		Version:    checkpointVersion,
		Config:     SearchConfig{MaxIterations: 10, Window: 5, Seed: 1},
		Iterations: 4, Accepted: 3, Rejected: 1,
		Current: o.Export(),
	}
	if err := SaveCheckpoint(path, ck); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Iterations != 4 || loaded.Accepted != 3 || loaded.Config.Seed != 1 {
		t.Errorf("round trip lost fields: %+v", loaded)
	}

	if _, err := LoadCheckpoint(filepath.Join(dir, "absent.ck")); err == nil {
		t.Error("missing file loaded")
	}

	// Torn mid-write (non-atomic writer crash simulation).
	torn := filepath.Join(dir, "torn.ck")
	if err := faultinject.TornCopy(path, torn, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(torn); err == nil {
		t.Error("torn checkpoint loaded")
	}

	// Truncated in place.
	trunc := filepath.Join(dir, "trunc.ck")
	if err := faultinject.TornCopy(path, trunc, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := faultinject.TruncateFile(trunc, 20); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpoint(trunc); err == nil {
		t.Error("truncated checkpoint loaded")
	}

	// Tampered fields that encode cleanly but fail validation.
	tamper := func(name string, mutate func(*Checkpoint)) {
		t.Helper()
		bad := *ck
		mutate(&bad)
		p := filepath.Join(dir, name)
		if err := SaveCheckpoint(p, &bad); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadCheckpoint(p); err == nil {
			t.Errorf("%s loaded", name)
		}
	}
	tamper("badversion.ck", func(c *Checkpoint) { c.Version = 99 })
	tamper("negative.ck", func(c *Checkpoint) { c.Accepted = -1 })
	tamper("inconsistent.ck", func(c *Checkpoint) { c.Accepted = 100 })
	// A checkpoint without a current organization cannot even be
	// written: the encoder refuses it, and validate() would too.
	noOrg := *ck
	noOrg.Current = nil
	if err := SaveCheckpoint(filepath.Join(dir, "noorg.ck"), &noOrg); err == nil {
		t.Error("checkpoint without a current organization saved")
	}
	if noOrg.validate() == nil {
		t.Error("checkpoint without a current organization validated")
	}

	// The retired JSON encoding is a clean load error, not a fallback.
	legacy := filepath.Join(dir, "legacy.ck")
	writeLegacyJSONCheckpoint(t, legacy, ck)
	if _, err := LoadCheckpoint(legacy); err == nil {
		t.Error("JSON-encoded checkpoint loaded")
	}
}

// writeLegacyJSONCheckpoint writes ck in the JSON encoding checkpoints
// used before binfmt became the only one.
func writeLegacyJSONCheckpoint(t *testing.T, path string, ck *Checkpoint) {
	t.Helper()
	c := ck.Config
	data, err := json.Marshal(map[string]any{
		"version":  ck.Version,
		"dim":      ck.Dim,
		"tagGroup": ck.TagGroup,
		"config": map[string]any{
			"repFraction": c.RepFraction, "maxIterations": c.MaxIterations,
			"window": c.Window, "minRelImprovement": c.MinRelImprovement,
			"leafProposals": c.LeafProposals, "acceptExponent": c.AcceptExponent,
			"seed": c.Seed, "checkpointEvery": c.CheckpointEvery,
		},
		"iterations": ck.Iterations, "accepted": ck.Accepted, "rejected": ck.Rejected,
		"sinceImprove": ck.SinceImprove, "plateauRef": ck.PlateauRef,
		"initialEff": ck.InitialEff, "bestEff": ck.BestEff, "rngState": ck.RNGState,
		"current": ck.Current,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointMatchesDimension(t *testing.T) {
	ck := &Checkpoint{Dim: 1, TagGroup: []string{"a", "b"}}
	if !ck.MatchesDimension(1, []string{"a", "b"}) {
		t.Error("matching dimension rejected")
	}
	if ck.MatchesDimension(0, []string{"a", "b"}) {
		t.Error("wrong dim accepted")
	}
	if ck.MatchesDimension(1, []string{"a"}) {
		t.Error("short tag group accepted")
	}
	if ck.MatchesDimension(1, []string{"a", "c"}) {
		t.Error("different tag group accepted")
	}
}

// Multi-dimensional builds degrade and resume the same way: cancel a
// build mid-optimization, then rerun with Resume and get a final
// organization identical to a never-interrupted build.
func TestBuildMultiDimContextCancelAndResume(t *testing.T) {
	dir := t.TempDir()
	baseU := filepath.Join(dir, "multi-uninterrupted.ck")
	baseI := filepath.Join(dir, "multi-interrupted.ck")

	opt := OptimizeConfig{MaxIterations: 400, Window: 200}
	mk := func(base string) MultiDimConfig {
		o := opt
		return MultiDimConfig{
			K:          2,
			Optimize:   &o,
			Seed:       7,
			Checkpoint: &CheckpointConfig{Path: base, EveryAccepted: 3},
		}
	}

	// Uninterrupted reference.
	tcU, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	mU, _, err := BuildMultiDimContext(context.Background(), tcU.Lake, mk(baseU))
	if err != nil {
		t.Fatal(err)
	}
	if mU.Truncated {
		t.Fatal("uninterrupted multidim build truncated")
	}
	for i := range mU.Orgs {
		if _, err := os.Stat(DimCheckpointPath(baseU, i)); !os.IsNotExist(err) {
			t.Errorf("dimension %d checkpoint survived a clean build", i)
		}
	}

	// Interrupted build: cancel once any dimension has checkpointed.
	tcI, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfgI := mk(baseI)
	cfgI.Optimize.Progress = onIteration(faultinject.CancelWhen(cancel, func() bool {
		for i := 0; i < 2; i++ {
			if _, err := os.Stat(DimCheckpointPath(baseI, i)); err == nil {
				return true
			}
		}
		return false
	}))
	mHalf, _, err := BuildMultiDimContext(ctx, tcI.Lake, cfgI)
	if err != nil {
		t.Fatal(err)
	}
	if !mHalf.Truncated {
		t.Fatal("canceled multidim build not truncated")
	}
	for _, o := range mHalf.Orgs {
		if err := o.Validate(); err != nil {
			t.Fatalf("truncated dimension invalid: %v", err)
		}
	}

	// Resume to completion.
	cfgR := mk(baseI)
	cfgR.Resume = true
	mR, _, err := BuildMultiDimContext(context.Background(), tcI.Lake, cfgR)
	if err != nil {
		t.Fatal(err)
	}
	if mR.Truncated {
		t.Fatal("resumed multidim build truncated")
	}
	if d := math.Abs(mR.Effectiveness() - mU.Effectiveness()); d > 1e-9 {
		t.Errorf("resumed multidim eff %v != uninterrupted %v (diff %v)",
			mR.Effectiveness(), mU.Effectiveness(), d)
	}
}

// Resume keeps a dimension's progress: a build canceled once the
// dimension has checkpointed leaves its own .dim<i> file behind, and a
// resumed build continues from it, redoes only the work since that
// snapshot, and finishes identical to a never-interrupted build.
func TestMultiDimResumeKeepsProgress(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	iterations := 0
	count := onIteration(func(int) { iterations++ })
	mk := func(base string) MultiDimConfig {
		return MultiDimConfig{
			K:          1,
			Optimize:   &OptimizeConfig{MaxIterations: 400, Window: 200, Progress: count},
			Seed:       7,
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

	// Cancel once the dimension has checkpointed, so it loses its
	// post-snapshot work.
	baseI := filepath.Join(dir, "i.ck")
	dimPath := DimCheckpointPath(baseI, 0)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfgI := mk(baseI)
	cfgI.Optimize.Progress = onIteration(faultinject.CancelWhen(cancel, func() bool {
		_, err := os.Stat(dimPath)
		return err == nil
	}))
	mHalf, _, err := BuildMultiDimContext(ctx, tc.Lake, cfgI)
	if err != nil {
		t.Fatal(err)
	}
	if !mHalf.Truncated {
		t.Fatal("canceled build not truncated")
	}
	ck, err := LoadCheckpoint(dimPath)
	if err != nil {
		t.Fatalf("interrupted build left no checkpoint to resume: %v", err)
	}
	if ck.Dim != 0 || ck.Config.Seed != mk(baseI).Seed {
		t.Errorf("checkpoint stamped dim %d seed %d, want dim 0 seed %d", ck.Dim, ck.Config.Seed, mk(baseI).Seed)
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
		t.Error("resumed build did not resume its dimension")
	}
	if iterations >= uninterrupted {
		t.Errorf("resumed build ran %d iterations, uninterrupted %d: no progress kept", iterations, uninterrupted)
	}
	if mR.Fingerprint() != mU.Fingerprint() {
		t.Error("resumed build differs from the uninterrupted one")
	}
	if _, err := os.Stat(dimPath); !os.IsNotExist(err) {
		t.Error("resumed build left its checkpoint after completing")
	}
}

// Resume gating: a checkpoint for the wrong seed or tag group, or one
// in the retired JSON encoding, is silently ignored and the dimension
// rebuilds from scratch.
func TestResumeIgnoresIncompatibleCheckpoint(t *testing.T) {
	tc, o := checkpointLakeOrg(t)
	build := func(base string, resume bool) (*MultiDim, []*OptimizeStats) {
		t.Helper()
		m, stats, err := BuildMultiDimContext(context.Background(), tc.Lake, MultiDimConfig{
			K:          1,
			Optimize:   &OptimizeConfig{MaxIterations: 60},
			Seed:       7,
			Checkpoint: &CheckpointConfig{Path: base, EveryAccepted: 1000},
			Resume:     resume,
		})
		if err != nil {
			t.Fatalf("incompatible checkpoint failed the build: %v", err)
		}
		return m, stats
	}
	fresh, _ := build(filepath.Join(t.TempDir(), "fresh.ck"), false)
	for _, c := range []struct {
		name  string
		write func(path string)
	}{
		// A checkpoint stamped with an alien tag group and seed.
		{"alien", func(path string) {
			ck := &Checkpoint{
				Version:  checkpointVersion,
				Dim:      0,
				TagGroup: []string{"not", "your", "tags"},
				Config:   SearchConfig{MaxIterations: 10, Window: 5, Seed: 999},
				Current:  o.Export(),
			}
			if err := SaveCheckpoint(path, ck); err != nil {
				t.Fatal(err)
			}
		}},
		// A checkpoint for exactly this dimension and seed in the old
		// JSON encoding: only the encoding keeps it from resuming.
		{"legacy JSON", func(path string) {
			writeLegacyJSONCheckpoint(t, path, &Checkpoint{
				Version:    checkpointVersion,
				TagGroup:   fresh.TagGroups[0],
				Config:     SearchConfig{MaxIterations: 60, Window: 50, Seed: 7},
				Iterations: 1, Accepted: 1,
				Current: o.Export(),
			})
		}},
	} {
		base := filepath.Join(t.TempDir(), "gate.ck")
		c.write(DimCheckpointPath(base, 0))
		m, stats := build(base, true)
		if m.Truncated {
			t.Errorf("%s: fresh build truncated", c.name)
		}
		if stats[0].Resumed {
			t.Errorf("%s: build resumed from an incompatible checkpoint", c.name)
		}
		for _, o := range m.Orgs {
			if err := o.Validate(); err != nil {
				t.Fatal(err)
			}
		}
		if m.Fingerprint() != fresh.Fingerprint() {
			t.Errorf("%s: build differs from a fresh build", c.name)
		}
	}
}
