package core

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"lakenav/internal/lake"
	"lakenav/internal/synth"
)

func TestBuildMultiDim(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, stats, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Orgs) == 0 || len(m.Orgs) > 3 {
		t.Fatalf("dimensions = %d", len(m.Orgs))
	}
	if len(stats) != len(m.Orgs) {
		t.Fatalf("stats len %d != orgs %d", len(stats), len(m.Orgs))
	}
	for i, st := range stats {
		if st != nil {
			t.Errorf("dimension %d has optimize stats without optimization", i)
		}
	}
	// Every organizable tag appears in exactly one group.
	seen := map[string]int{}
	for _, g := range m.TagGroups {
		for _, tag := range g {
			seen[tag]++
		}
	}
	for tag, n := range seen {
		if n != 1 {
			t.Errorf("tag %s in %d groups", tag, n)
		}
	}
	for _, o := range m.Orgs {
		if err := o.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	// A dimension whose construction fails fails the whole build, with
	// or without the search.
	for _, opt := range []*OptimizeConfig{nil, {MaxIterations: 10}} {
		bad := MultiDimConfig{K: 2, Seed: 1, Build: BuildConfig{Gamma: -1}, Optimize: opt}
		if _, _, err := BuildMultiDim(tc.Lake, bad); err == nil {
			t.Errorf("dimension build error swallowed (optimize %v)", opt != nil)
		}
	}
}

func TestMultiDimCoversAllAttrs(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	probs := m.AttrProbs()
	// Every text attribute with a tag must be reachable in some
	// dimension (each tag lives in exactly one group).
	for _, a := range tc.Lake.Attrs {
		if !a.Text || a.EmbCount == 0 {
			continue
		}
		if _, ok := probs[a.ID]; !ok {
			t.Errorf("attr %d unreachable in all dimensions", a.ID)
		}
	}
}

func TestMultiDimEffectivenessAtLeastSingleDim(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	opt := &OptimizeConfig{MaxIterations: 80}
	one, _, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 1, Optimize: opt, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	two, _, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 2, Optimize: opt, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e1, e2 := one.Effectiveness(), two.Effectiveness()
	if e1 <= 0 || e2 <= 0 {
		t.Fatalf("effectiveness not positive: %v, %v", e1, e2)
	}
	// The paper's headline trend: more dimensions help (smaller, more
	// coherent tag groups). Allow slack for the small instance.
	if e2 < e1*0.8 {
		t.Errorf("2-dim (%v) much worse than 1-dim (%v)", e2, e1)
	}
}

// TestMultiDimParallelMatchesSerial builds each lake serially (index
// order) and on the dimension pool (largest group first) and requires
// the same organization in every dimension. On the Socrata lake the
// largest group is not group 0, so the pool really runs the
// dimensions in a different order.
func TestMultiDimParallelMatchesSerial(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	soc, err := synth.GenerateSocrata(synth.SmallSocrataConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		l         *lake.Lake
		k         int
		seed      int64
		reordered bool
	}{
		{"tagcloud", tc.Lake, 3, 5, false},
		{"socrata", soc.Lake, 4, 2, true},
	} {
		opt := &OptimizeConfig{MaxIterations: 40}
		serial, _, err := BuildMultiDim(c.l, MultiDimConfig{K: c.k, Optimize: opt, Seed: c.seed})
		if err != nil {
			t.Fatal(err)
		}
		parallel, _, err := BuildMultiDim(c.l, MultiDimConfig{K: c.k, Optimize: opt, Seed: c.seed, Parallel: true})
		if err != nil {
			t.Fatal(err)
		}
		if c.reordered {
			if order := largestFirst(c.l, parallel.TagGroups); order[0] == 0 {
				t.Fatalf("%s: dispatch order %v starts at group 0; want a lake whose largest group is not group 0", c.name, order)
			}
		}
		if math.Abs(serial.Effectiveness()-parallel.Effectiveness()) > 1e-9 {
			t.Errorf("%s: parallel %v != serial %v", c.name, parallel.Effectiveness(), serial.Effectiveness())
		}
		for i := range serial.Orgs {
			if s, p := serial.Orgs[i].Fingerprint(), parallel.Orgs[i].Fingerprint(); s != p {
				t.Errorf("%s: dimension %d fingerprint parallel %x != serial %x", c.name, i, p, s)
			}
		}
	}
}

func TestMultiDimInvalidK(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := BuildMultiDim(tc.Lake, MultiDimConfig{K: 0}); err == nil {
		t.Error("K=0 accepted")
	}
}

func TestEvaluateSuccess(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewClustered(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res := EvaluateSuccess(tc.Lake, AttrProbMap(o), DefaultTheta)
	if len(res.PerTable) != len(tc.Lake.Tables) {
		t.Fatalf("PerTable len %d", len(res.PerTable))
	}
	if res.Mean <= 0 || res.Mean > 1 {
		t.Errorf("mean success = %v", res.Mean)
	}
	for i := 1; i < len(res.Sorted); i++ {
		if res.Sorted[i] < res.Sorted[i-1] {
			t.Fatal("Sorted not ascending")
		}
	}
	// Success dominates raw discovery: each table's success is at least
	// its best attribute's discovery probability (the attribute itself
	// is in its own similar set).
	probs := AttrProbMap(o)
	for ti, tb := range tc.Lake.Tables {
		bestAttr := 0.0
		for _, a := range tb.Attrs {
			if p := probs[a]; p > bestAttr {
				bestAttr = p
			}
		}
		if res.PerTable[ti] < bestAttr-1e-9 {
			t.Errorf("table %d success %v below best attr %v", ti, res.PerTable[ti], bestAttr)
		}
	}
}

func TestEvaluateSuccessBadTheta(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewFlat(tc.Lake, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// theta out of range falls back to the default instead of failing.
	res := EvaluateSuccess(tc.Lake, AttrProbMap(o), -1)
	if res.Mean <= 0 {
		t.Errorf("fallback theta produced mean %v", res.Mean)
	}
}

func TestLabels(t *testing.T) {
	l := testLake(t)
	o, err := NewClustered(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Leaf labels are qualified names.
	leaf := o.Leaf(o.Attrs()[0])
	if got := o.Label(leaf); got != "fishlist.species" {
		t.Errorf("leaf label = %q", got)
	}
	// Tag state labels are the tag.
	if got := o.Label(o.tagStateID("fishery")); got != "fishery" {
		t.Errorf("tag label = %q", got)
	}
	// Interior labels contain up to two tags.
	root := o.Label(o.Root)
	if root == "" || root == "(empty)" {
		t.Errorf("root label = %q", root)
	}
	parts := len(splitLabel(root))
	if parts < 1 || parts > 2 {
		t.Errorf("root label %q has %d parts", root, parts)
	}
}

func splitLabel(s string) []string {
	var out []string
	for _, p := range []byte(s) {
		_ = p
	}
	start := 0
	for i := 0; i+2 < len(s); i++ {
		if s[i:i+3] == " / " {
			out = append(out, s[start:i])
			start = i + 3
		}
	}
	out = append(out, s[start:])
	return out
}

// Construction is bit-identical at any GOMAXPROCS. The build nests two
// parallel layers — dimensions searching concurrently and each
// evaluator's per-query pool, both sized by GOMAXPROCS — and runs
// checkpoint reconstruction; none of them may change the answer.
func TestBuildMultiDimGOMAXPROCSInvariance(t *testing.T) {
	tc, err := synth.GenerateTagCloud(synth.SmallTagCloudConfig())
	if err != nil {
		t.Fatal(err)
	}
	build := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		m, stats, err := BuildMultiDimContext(context.Background(), tc.Lake, MultiDimConfig{
			K:          2,
			Optimize:   &OptimizeConfig{MaxIterations: 200, Window: 100},
			Seed:       7,
			Parallel:   true,
			Checkpoint: &CheckpointConfig{Path: filepath.Join(t.TempDir(), "p.ck"), EveryAccepted: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Orgs) != 2 {
			t.Fatalf("built %d dimensions, want 2", len(m.Orgs))
		}
		for i, st := range stats {
			if st.Checkpoints == 0 {
				t.Fatalf("dimension %d never checkpointed; reconstruction untested", i)
			}
		}
		return m.Fingerprint()
	}
	serial := build(1)
	forks := metricParallelForks.Value()
	parallel := build(4)
	if metricParallelForks.Value() == forks {
		t.Fatal("evaluator pool never forked at GOMAXPROCS 4; the test proves nothing")
	}
	if serial != parallel {
		t.Errorf("fingerprint at GOMAXPROCS 1 %x != at GOMAXPROCS 4 %x", serial, parallel)
	}
}
