package lakenav

import (
	"fmt"

	"lakenav/internal/core"
	"lakenav/internal/journal"
	"lakenav/internal/lake"
)

// IngestConfig controls incremental maintenance of an organization from
// journal batches.
type IngestConfig struct {
	// Reoptimize runs a localized search pass after each batch, over
	// only the states the batch disturbed. Without it the structure
	// stays exactly the incremental-apply result (bit-identical to a
	// from-scratch flat rebuild for add-only batches). The searches
	// evaluate exactly under the default iteration cap, and batch k of
	// dimension i derives its seed from ingestSeed, k and i, so every
	// replay of the same journal — `lakenav ingest` and navserver alike
	// — walks the same trajectory.
	Reoptimize bool
}

// ingestSeed is the base seed of the per-batch reoptimization searches.
const ingestSeed = 1

// IngestPipeline replays journal batches into a working lake and its
// organization. The pipeline owns its working state: Apply mutates the
// lake and organization in place, and Freeze clones an immutable
// generation for serving, so ingest can keep running while older
// generations serve queries.
//
// Apply errors poison the pipeline (the working organization may be
// partially mutated); callers keep serving the last frozen generation
// and rebuild from the journal.
type IngestPipeline struct {
	lake    *Lake
	org     *Organization
	cfg     IngestConfig
	applied int
	broken  error
}

// NewIngestPipeline wraps a lake and the organization built over it.
// The organization must have been built or imported over exactly this
// lake.
func NewIngestPipeline(l *Lake, org *Organization, cfg IngestConfig) (*IngestPipeline, error) {
	if org.lake != l {
		return nil, fmt.Errorf("lakenav: ingest pipeline: organization was not built over this lake")
	}
	l.ensureTopics()
	return &IngestPipeline{lake: l, org: org, cfg: cfg}, nil
}

// Batches returns how many batches have been applied.
func (p *IngestPipeline) Batches() int { return p.applied }

// Hash returns the canonical structure hash of the working
// organization: the digest `lakenav ingest -status` prints and the
// crash-soak harness compares against a recovered server.
func (p *IngestPipeline) Hash() string { return p.org.m.StructureHash() }

// Organization returns the working organization. It mutates on Apply;
// serve from Freeze clones, not from this.
func (p *IngestPipeline) Organization() *Organization { return p.org }

// Apply replays one journal batch: lake mutation, incremental topic
// computation for the added attributes, organization apply, and (when
// configured) localized reoptimization seeded by the batch index.
func (p *IngestPipeline) Apply(b journal.Batch) error {
	if p.broken != nil {
		return fmt.Errorf("lakenav: ingest pipeline poisoned by earlier failure: %w", p.broken)
	}
	add := make([]lake.TableChange, len(b.Add))
	for i, t := range b.Add {
		tc := lake.TableChange{Name: t.Name, Tags: t.Tags}
		for _, c := range t.Columns {
			tc.Attrs = append(tc.Attrs, lake.AttrSpec{Name: c.Name, Values: c.Values})
		}
		add[i] = tc
	}
	fail := func(err error) error {
		p.broken = err
		return err
	}
	sum, err := p.lake.l.ApplyChanges(add, b.Remove)
	if err != nil {
		// Validation failures happen before any mutation; the pipeline
		// stays healthy and the bad batch is simply rejected.
		return err
	}
	if err := p.lake.l.ComputeTopicsFor(p.lake.model, sum.AddedAttrs); err != nil {
		return fail(err)
	}
	css, err := p.org.m.ApplyLakeBatch(sum)
	if err != nil {
		return fail(err)
	}
	p.applied++
	if p.cfg.Reoptimize {
		for i, cs := range css {
			// Distinct stream per (batch, dimension), fully derived from
			// the journal position: replay is deterministic.
			seed := ingestSeed + int64(p.applied)*7919 + int64(i)*104729
			if _, err := core.ReoptimizeLocal(p.org.m.Orgs[i], cs, seed); err != nil {
				return fail(err)
			}
		}
	}
	return nil
}

// Replay applies a sequence of recovered journal batches in order.
func (p *IngestPipeline) Replay(batches []journal.Batch) error {
	for i, b := range batches {
		if err := p.Apply(b); err != nil {
			return fmt.Errorf("lakenav: replay batch %d: %w", i, err)
		}
	}
	return nil
}

// Freeze clones the working state into an immutable serving generation:
// a snapshot lake, the organization re-imported over it, and a fresh
// search engine. Later Apply calls never change what a frozen
// generation observes.
func (p *IngestPipeline) Freeze() (*Organization, *SearchEngine, error) {
	if p.broken != nil {
		return nil, nil, fmt.Errorf("lakenav: ingest pipeline poisoned by earlier failure: %w", p.broken)
	}
	frozen := &Lake{l: p.lake.l.Clone(), model: p.lake.model}
	m, err := core.ImportMultiDim(frozen.l, p.org.m.Export())
	if err != nil {
		return nil, nil, fmt.Errorf("lakenav: freeze generation: %w", err)
	}
	return &Organization{m: m, lake: frozen}, NewSearchEngine(frozen), nil
}
