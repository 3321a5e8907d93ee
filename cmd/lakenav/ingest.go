package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"lakenav"
	"lakenav/internal/journal"
)

// stringList is a repeatable string flag.
type stringList []string

func (s *stringList) String() string     { return strings.Join(*s, ",") }
func (s *stringList) Set(v string) error { *s = append(*s, v); return nil }

// cmdIngest appends commits to a journal and reports the replayed
// state.
//
// The base lake and organization files are immutable artifacts: ingest
// never rewrites them. Every invocation recovers the journal (Open
// truncates any torn tail a crash left behind), replays all committed
// batches over the base, and only then — with the working state equal
// to the journal — validates and commits the new batch, if any. A
// batch is applied to the working state before it is appended, so the
// journal only ever contains batches that replay cleanly; a crash
// between apply and append simply loses the uncommitted batch. The
// printed hash is the canonical structure digest a navserver tailing
// the same journal converges to, which is what the crash-soak harness
// compares.
func cmdIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	path := fs.String("lake", "", "base lake path, json or bin (never rewritten)")
	orgPath := fs.String("org", "", "base organization JSON path (from `lakenav organize -export`)")
	journalPath := fs.String("journal", "", "commit journal path (created on first commit)")
	var adds stringList
	fs.Var(&adds, "add", "JSON file describing a table to add: {\"name\",\"tags\",\"columns\":[{\"name\",\"values\"}]} (repeatable)")
	var removes stringList
	fs.Var(&removes, "remove", "table name to remove (repeatable)")
	status := fs.Bool("status", false, "print the replayed batch count and structure hash")
	export := fs.String("export", "", "write the replayed organization to this path")
	reoptimize := fs.Bool("reoptimize", false, "run a localized, deterministically seeded search after each batch (must match the serving navserver's flag)")
	seed := fs.Int64("seed", 1, "reoptimization seed (with -reoptimize)")
	iters := fs.Int("iters", 0, "reoptimization iteration cap per batch; 0 selects the default")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags

	if *journalPath == "" {
		return fmt.Errorf("missing -journal")
	}
	if *orgPath == "" {
		return fmt.Errorf("missing -org (build one with `lakenav organize -export`)")
	}
	l, err := loadLake(*path)
	if err != nil {
		return err
	}
	org, err := lakenav.LoadOrganization(l, *orgPath)
	if err != nil {
		return err
	}
	w, recovered, err := journal.Open(*journalPath)
	if err != nil {
		return err
	}
	defer w.Close()

	p, err := lakenav.NewIngestPipeline(l, org, lakenav.IngestConfig{
		Reoptimize:    *reoptimize,
		Seed:          *seed,
		MaxIterations: *iters,
	})
	if err != nil {
		return err
	}
	if err := p.Replay(recovered); err != nil {
		return fmt.Errorf("journal does not replay over %s + %s: %w", *path, *orgPath, err)
	}

	batch := journal.Batch{Remove: removes}
	for _, f := range adds {
		t, err := readTableFile(f)
		if err != nil {
			return err
		}
		batch.Add = append(batch.Add, t)
	}
	if !batch.Empty() {
		// Validate by applying first; only a batch the organization
		// accepts reaches the journal.
		if err := p.Apply(batch); err != nil {
			return fmt.Errorf("batch rejected (nothing committed): %w", err)
		}
		if err := w.Append(batch); err != nil {
			return err
		}
		fmt.Printf("committed batch %d (+%d tables, -%d tables)\n",
			p.Batches(), len(batch.Add), len(batch.Remove))
	}

	if *status || !batch.Empty() {
		fmt.Printf("batches: %d\nhash: %s\n", p.Batches(), p.Hash())
	}
	if *export != "" {
		if err := p.Organization().SaveJSON(*export); err != nil {
			return err
		}
		fmt.Printf("wrote organization to %s\n", *export)
	}
	return nil
}

// readTableFile decodes one -add table description, rejecting unknown
// fields so a typo'd key fails loudly instead of committing an empty
// table.
func readTableFile(path string) (journal.Table, error) {
	var t journal.Table
	f, err := os.Open(path)
	if err != nil {
		return t, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return t, fmt.Errorf("table file %s: %w", path, err)
	}
	if t.Name == "" {
		return t, fmt.Errorf("table file %s: missing name", path)
	}
	return t, nil
}
