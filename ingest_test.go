package lakenav

import (
	"testing"

	"lakenav/internal/journal"
)

func harborBatch() journal.Batch {
	return journal.Batch{Add: []journal.Table{
		{Name: "harbor_fees", Tags: []string{"fisheries", "harbor"}, Columns: []journal.Column{
			{Name: "dock", Values: []string{"fishing dock", "salmon pier", "trawler berth"}},
		}},
	}}
}

func TestIngestPipelineApplyAndFreeze(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, Config{Dimensions: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewIngestPipeline(l, org, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	base := p.Hash()
	if base == "" {
		t.Fatal("empty structure hash")
	}
	if err := p.Apply(harborBatch()); err != nil {
		t.Fatal(err)
	}
	if p.Batches() != 1 {
		t.Fatalf("Batches = %d", p.Batches())
	}
	if p.Hash() == base {
		t.Fatal("structure hash unchanged by batch")
	}

	frozen, search, err := p.Freeze()
	if err != nil {
		t.Fatal(err)
	}
	if search == nil {
		t.Fatal("nil search engine")
	}
	frozenHash := frozen.m.StructureHash()
	if frozenHash != p.Hash() {
		t.Fatal("frozen generation hash differs from working state")
	}
	if eff := frozen.Effectiveness(); eff <= 0 || eff > 1 {
		t.Fatalf("frozen effectiveness %v", eff)
	}

	// Later batches must not leak into the frozen generation.
	if err := p.Apply(journal.Batch{Remove: []string{"budget_2025"}}); err != nil {
		t.Fatal(err)
	}
	if p.Hash() == frozenHash {
		t.Fatal("removal batch did not change the working structure")
	}
	if frozen.m.StructureHash() != frozenHash {
		t.Fatal("frozen generation mutated by later batch")
	}
	if _, ok := frozen.lake.l.TableByName("budget_2025"); !ok {
		t.Fatal("frozen lake lost a table removed after the freeze")
	}
	if nav := frozen.Navigator(); nav.Here().IsLeaf {
		t.Fatal("frozen organization root is a leaf")
	}
}

func TestIngestPipelineRejectsBadBatchButSurvives(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, Config{Dimensions: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewIngestPipeline(l, org, IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Lake-level validation failures reject the batch before any
	// mutation, so the pipeline keeps accepting good batches.
	if err := p.Apply(journal.Batch{Remove: []string{"no_such_table"}}); err == nil {
		t.Fatal("removing a missing table must fail")
	}
	if err := p.Apply(harborBatch()); err != nil {
		t.Fatalf("pipeline poisoned by a rejected batch: %v", err)
	}
	if _, _, err := p.Freeze(); err != nil {
		t.Fatal(err)
	}
}

func TestIngestPipelineWrongLake(t *testing.T) {
	l := demoLake()
	org, err := Organize(l, Config{Dimensions: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewIngestPipeline(demoLake(), org, IngestConfig{}); err == nil {
		t.Fatal("pipeline accepted an organization built over a different lake")
	}
}

// TestIngestPipelineReplayDeterministic pins the property crash
// recovery relies on end to end through the public API: two pipelines
// replaying the same journal — including seeded localized
// reoptimization — converge to identical structures.
func TestIngestPipelineReplayDeterministic(t *testing.T) {
	batches := []journal.Batch{
		harborBatch(),
		{Remove: []string{"transit_routes"}},
		{Add: []journal.Table{
			{Name: "mill_output", Tags: []string{"grain"}, Columns: []journal.Column{
				{Name: "mill", Values: []string{"stone mill", "wheat silo"}},
			}},
		}, Remove: []string{"food_inspections"}},
	}
	run := func() string {
		l := demoLake()
		org, err := Organize(l, Config{Dimensions: 2, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewIngestPipeline(l, org, IngestConfig{Reoptimize: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Replay(batches); err != nil {
			t.Fatal(err)
		}
		return p.Hash()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("replay diverged: %s vs %s", a, b)
	}
}
