package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"lakenav/internal/lake"
)

// applyBatch pushes one change batch through the lake and the
// organization, failing the test on any error.
func applyBatch(t *testing.T, l *lake.Lake, o *Org, add []lake.TableChange, remove []string) *ChangeSet {
	t.Helper()
	sum, err := l.ApplyChanges(add, remove)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ComputeTopicsFor(axisModel{}, sum.AddedAttrs); err != nil {
		t.Fatal(err)
	}
	cs, err := o.ApplyLakeBatch(sum, nil)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestApplyLakeBatchAddOnlyMatchesRebuild(t *testing.T) {
	l := testLake(t)
	org, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	cs := applyBatch(t, l, org, []lake.TableChange{
		// harbors extends the existing fishery tag and introduces port;
		// the fee attribute is numeric and must stay unorganized.
		{Name: "harbors", Tags: []string{"fishery", "port"}, Attrs: []lake.AttrSpec{
			{Name: "dock", Values: []string{"fishdock", "fishpier"}},
			{Name: "fee", Values: []string{"1", "2"}},
		}},
		{Name: "ledger", Tags: []string{"tax"}, Attrs: []lake.AttrSpec{
			{Name: "entry", Values: []string{"taxc", "taxd"}},
		}},
	}, nil)
	if err := org.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(cs.TopicChanged) == 0 || len(cs.ChildrenChanged) == 0 {
		t.Fatalf("change set empty: %+v", cs)
	}
	if org.tagStateID("port") == -1 {
		t.Fatal("new tag port not materialized")
	}

	// The incremental result must be canonically identical to a
	// from-scratch rebuild over the post-batch lake — including
	// bit-identical effectiveness for an add-only batch.
	rebuilt, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := org.StructureHash(), rebuilt.StructureHash(); got != want {
		t.Fatalf("incremental structure %s diverges from rebuild %s", got, want)
	}
	if got, want := org.Effectiveness(), rebuilt.Effectiveness(); got != want {
		t.Fatalf("incremental effectiveness %v, rebuild %v (must be bit-identical)", got, want)
	}
}

func TestApplyLakeBatchRemoveMatchesRebuildStructure(t *testing.T) {
	l := testLake(t)
	org, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	urban, _ := l.TableByName("urban")
	district := urban.Attrs[0]
	// Removing urban empties the city tag; removing inspections drops
	// the shared fishery/grain attribute; mills repopulates grain.
	applyBatch(t, l, org, []lake.TableChange{
		{Name: "mills", Tags: []string{"grain"}, Attrs: []lake.AttrSpec{
			{Name: "mill", Values: []string{"graind", "graine"}},
		}},
	}, []string{"urban", "inspections"})
	if err := org.Validate(); err != nil {
		t.Fatal(err)
	}
	if org.tagStateID("city") != -1 {
		t.Fatal("emptied tag city still has a state")
	}
	if org.Leaf(district) != -1 {
		t.Fatal("removed attribute still has a leaf")
	}

	rebuilt, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := org.StructureHash(), rebuilt.StructureHash(); got != want {
		t.Fatalf("incremental structure %s diverges from rebuild %s", got, want)
	}
	// Removal accumulators may drift by ulps (floating-point
	// subtraction is not an exact inverse), but never materially.
	got, want := org.Effectiveness(), rebuilt.Effectiveness()
	if diff := got - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("incremental effectiveness %v, rebuild %v", got, want)
	}
}

func TestApplyLakeBatchEmptyingOrgFails(t *testing.T) {
	l := testLake(t)
	org, err := NewFlat(l, BuildConfig{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := l.ApplyChanges(nil,
		[]string{"fishlist", "grains", "urban", "budget", "inspections"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := org.ApplyLakeBatch(sum, nil); err == nil {
		t.Fatal("batch removing every table must fail incremental apply")
	}
}

func TestReoptimizeLocalDeterministicAndMonotone(t *testing.T) {
	run := func() (*Org, *OptimizeStats) {
		l := testLake(t)
		org, err := NewClustered(l, BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		cs := applyBatch(t, l, org, []lake.TableChange{
			{Name: "harbors", Tags: []string{"fishery", "port"}, Attrs: []lake.AttrSpec{
				{Name: "dock", Values: []string{"fishdock", "fishpier"}},
			}},
			{Name: "ledger", Tags: []string{"tax"}, Attrs: []lake.AttrSpec{
				{Name: "entry", Values: []string{"taxc", "taxd"}},
			}},
		}, nil)
		stats, err := ReoptimizeLocal(org, cs, 7)
		if err != nil {
			t.Fatal(err)
		}
		if err := org.Validate(); err != nil {
			t.Fatal(err)
		}
		return org, stats
	}
	o1, s1 := run()
	o2, s2 := run()
	if s1.FinalEff < s1.InitialEff {
		t.Errorf("localized reoptimization degraded effectiveness: %v -> %v",
			s1.InitialEff, s1.FinalEff)
	}
	if s1.Accepted+s1.Rejected != s1.Iterations {
		t.Errorf("accept/reject counts inconsistent: %+v", s1)
	}
	if o1.StructureHash() != o2.StructureHash() {
		t.Error("same seed produced different structures")
	}
	if s1.FinalEff != s2.FinalEff {
		t.Errorf("same seed produced different effectiveness: %v vs %v",
			s1.FinalEff, s2.FinalEff)
	}
	// The cached evaluator effectiveness must agree with recomputation.
	if direct := o1.Effectiveness(); s1.FinalEff != direct {
		t.Errorf("stats eff %v != direct %v", s1.FinalEff, direct)
	}
}

func TestMultiDimApplyLakeBatch(t *testing.T) {
	l := testLake(t)
	md, _, err := BuildMultiDim(l, MultiDimConfig{K: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := l.ApplyChanges([]lake.TableChange{
		{Name: "harbors", Tags: []string{"fishery", "port"}, Attrs: []lake.AttrSpec{
			{Name: "dock", Values: []string{"fishdock", "fishpier"}},
		}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ComputeTopicsFor(axisModel{}, sum.AddedAttrs); err != nil {
		t.Fatal(err)
	}
	css, err := md.ApplyLakeBatch(sum)
	if err != nil {
		t.Fatal(err)
	}
	if len(css) != len(md.Orgs) {
		t.Fatalf("%d change sets for %d dimensions", len(css), len(md.Orgs))
	}
	// port must land in exactly one tag group and be materialized in
	// exactly that dimension.
	portDim := -1
	for i, g := range md.TagGroups {
		for _, tg := range g {
			if tg == "port" {
				if portDim != -1 {
					t.Fatal("port routed to two dimensions")
				}
				portDim = i
			}
		}
	}
	if portDim == -1 {
		t.Fatal("port not routed to any dimension")
	}
	for i, org := range md.Orgs {
		if err := org.Validate(); err != nil {
			t.Fatalf("dimension %d: %v", i, err)
		}
		if has := org.tagStateID("port") != -1; has != (i == portDim) {
			t.Errorf("dimension %d: tag state presence %v, routed to %d", i, has, portDim)
		}
	}
	if eff := md.Effectiveness(); eff <= 0 {
		t.Errorf("effectiveness %v after batch", eff)
	}
}

// TestReplayDeterminism pins the convergence property crash recovery
// relies on: replaying the same batch prefix from the same seed state
// yields byte-identical organization exports, so a journal truncated to
// any committed prefix recovers to exactly the organization a clean run
// over that prefix produces.
func TestReplayDeterminism(t *testing.T) {
	batches := []struct {
		add    []lake.TableChange
		remove []string
	}{
		{add: []lake.TableChange{
			{Name: "harbors", Tags: []string{"fishery", "port"}, Attrs: []lake.AttrSpec{
				{Name: "dock", Values: []string{"fishdock", "fishpier"}},
			}},
		}},
		{remove: []string{"urban"}},
		{add: []lake.TableChange{
			{Name: "mills", Tags: []string{"grain"}, Attrs: []lake.AttrSpec{
				{Name: "mill", Values: []string{"graind", "graine"}},
			}},
		}, remove: []string{"inspections"}},
	}
	replay := func(n int) []byte {
		l := testLake(t)
		org, err := NewFlat(l, BuildConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			applyBatch(t, l, org, batches[i].add, batches[i].remove)
		}
		out, err := json.Marshal(org.Export())
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	for n := 0; n <= len(batches); n++ {
		if !bytes.Equal(replay(n), replay(n)) {
			t.Fatalf("replay of %d batches is not deterministic", n)
		}
	}
}
