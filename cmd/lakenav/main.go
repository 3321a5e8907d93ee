// Command lakenav is the command-line interface to the lakenav library:
// generate synthetic lakes, inspect lake statistics, build organizations,
// and run keyword searches.
//
// Usage:
//
//	lakenav gen -kind tagcloud|socrata -out lake.json [-quick] [-seed N] [-format json|bin]
//	lakenav stats -lake lake.json
//	lakenav organize -lake lake.json [-dims N] [-no-opt] [-seed N] [-export org.bin]
//	                 [-checkpoint search.ck] [-resume] [-timeout 5m]
//	                 [-progress events.ndjson] [-format bin|json]
//	lakenav search -lake lake.json -q "query" [-k N]
//	lakenav walk -lake lake.json -q "query" [-dims N]
//	lakenav ingest -lake lake.json -org org.bin -journal commits.journal
//	               [-add table.json]... [-remove name]... [-status] [-export out.json]
//	lakenav convert -kind org|lake -in src -out dst -to json|bin [-lake lake.json]
//	lakenav orghash -lake lake.json -org org.bin [-repeat N]
//
// Lake paths sniff the file magic, so every -lake flag accepts either
// format. Organizations load only from the binary container, which
// `organize -export` writes by default; a JSON organization is an
// export for people and other tools. -format/-to choose what gets
// written.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/signal"
	"syscall"

	"lakenav"
	"lakenav/internal/obs"
	"lakenav/internal/synth"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "organize":
		err = cmdOrganize(os.Args[2:])
	case "search":
		err = cmdSearch(os.Args[2:])
	case "walk":
		err = cmdWalk(os.Args[2:])
	case "ingest":
		err = cmdIngest(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "orghash":
		err = cmdOrgHash(os.Args[2:])
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lakenav:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: lakenav <command> [flags]

commands:
  gen       generate a synthetic lake (tagcloud or socrata)
  stats     print lake statistics
  organize  build an organization and report its structure
  search    BM25 keyword search over a lake
  walk      simulate one navigation toward a query
  ingest    commit table add/remove batches to a crash-safe journal
  convert   re-encode a lake between json and bin, or re-save a bin organization as bin or json
  orghash   time an organization load and print its fingerprint`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	kind := fs.String("kind", "socrata", "lake kind: tagcloud or socrata")
	out := fs.String("out", "lake.json", "output path")
	quick := fs.Bool("quick", false, "generate a reduced instance")
	seed := fs.Int64("seed", 1, "generation seed")
	formatName := fs.String("format", "json", "output format: json or bin")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	format, err := lakenav.ParseFormat(*formatName)
	if err != nil {
		return err
	}

	var save func(path string) error
	switch *kind {
	case "tagcloud":
		cfg := synth.PaperTagCloudConfig()
		if *quick {
			cfg = synth.SmallTagCloudConfig()
		}
		cfg.Seed = *seed
		tc, err := synth.GenerateTagCloud(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("tagcloud: %d tables, %d attributes, %d tags\n",
			len(tc.Lake.Tables), len(tc.Lake.Attrs), len(tc.Lake.Tags()))
		save = tc.Lake.SaveFile
		if format == lakenav.FormatBin {
			save = tc.Lake.SaveFileBin
		}
	case "socrata":
		cfg := synth.DefaultSocrataConfig()
		if *quick {
			cfg = synth.SmallSocrataConfig()
		}
		cfg.Seed = *seed
		soc, err := synth.GenerateSocrata(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("socrata-like: %d tables, %d attributes, %d tags\n",
			len(soc.Lake.Tables), len(soc.Lake.Attrs), len(soc.Lake.Tags()))
		save = soc.Lake.SaveFile
		if format == lakenav.FormatBin {
			save = soc.Lake.SaveFileBin
		}
	default:
		return fmt.Errorf("unknown kind %q", *kind)
	}
	if err := save(*out); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)
	return nil
}

func loadLake(path string) (*lakenav.Lake, error) {
	if path == "" {
		return nil, fmt.Errorf("missing -lake")
	}
	return lakenav.LoadJSON(path)
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	path := fs.String("lake", "", "lake path (json or bin)")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	l, err := loadLake(*path)
	if err != nil {
		return err
	}
	fmt.Println(l.Stats())
	return nil
}

func cmdOrganize(args []string) error {
	fs := flag.NewFlagSet("organize", flag.ExitOnError)
	path := fs.String("lake", "", "lake path (json or bin)")
	dims := fs.Int("dims", 1, "number of dimensions")
	noOpt := fs.Bool("no-opt", false, "skip local-search optimization")
	seed := fs.Int64("seed", 1, "construction seed")
	export := fs.String("export", "", "write the organization structure to this path")
	tree := fs.Bool("tree", false, "print the organization outline")
	checkpoint := fs.String("checkpoint", "", "checkpoint the search to this path (dimension i appends .dim<i>); Ctrl-C stops gracefully with the best-so-far result")
	resume := fs.Bool("resume", false, "resume the search from -checkpoint files when present")
	timeout := fs.Duration("timeout", 0, "optional build time budget; on expiry the best organization so far is returned")
	progress := fs.String("progress", "", "stream optimizer progress to this file as NDJSON, one event per iteration")
	formatName := fs.String("format", "bin", "format for -export files: bin (loadable by navserver -org and ingest -org) or json (export only); checkpoints are always bin")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	format, err := lakenav.ParseFormat(*formatName)
	if err != nil {
		return err
	}
	l, err := loadLake(*path)
	if err != nil {
		return err
	}
	cfg := lakenav.DefaultConfig()
	cfg.Dimensions = *dims
	cfg.Optimize = !*noOpt
	cfg.Seed = *seed
	cfg.CheckpointPath = *checkpoint
	cfg.Resume = *resume
	var sink *obs.Sink
	if *progress != "" {
		if !cfg.Optimize {
			return fmt.Errorf("-progress requires optimization (drop -no-opt)")
		}
		f, err := os.Create(*progress)
		if err != nil {
			return fmt.Errorf("progress file: %w", err)
		}
		defer f.Close()
		sink = obs.NewSink(f)
		cfg.Progress = func(p lakenav.ProgressEvent) { sink.Emit(p) }
	}
	// Ctrl-C (or the -timeout budget) stops the search at its next safe
	// boundary and falls through to reporting the best-so-far result.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	org, err := lakenav.OrganizeContext(ctx, l, cfg)
	if err != nil {
		return err
	}
	if sink != nil {
		// A failed progress stream (disk full, revoked path) degrades
		// the observability, never the build: warn and keep the result.
		if serr := sink.Err(); serr != nil {
			fmt.Fprintf(os.Stderr, "lakenav: progress stream %s: %v\n", *progress, serr)
		}
	}
	if org.Truncated() {
		msg := "search interrupted; reporting best-so-far organization"
		if *checkpoint != "" {
			msg += " (rerun with -resume to finish)"
		}
		fmt.Println(msg)
	}
	org.WriteReport(os.Stdout)
	fmt.Printf("mean success probability (theta=0.9): %.4f\n", org.SuccessProbability(0))
	if *tree {
		if err := org.WriteTree(os.Stdout, 6, 12); err != nil {
			return err
		}
	}
	if *export != "" {
		if err := org.Save(*export, format); err != nil {
			return err
		}
		fmt.Printf("wrote organization to %s\n", *export)
	}
	return nil
}

func cmdSearch(args []string) error {
	fs := flag.NewFlagSet("search", flag.ExitOnError)
	path := fs.String("lake", "", "lake path (json or bin)")
	query := fs.String("q", "", "keyword query")
	k := fs.Int("k", 10, "results to return")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	if *query == "" {
		return fmt.Errorf("missing -q")
	}
	l, err := loadLake(*path)
	if err != nil {
		return err
	}
	se := lakenav.NewSearchEngine(l)
	hits := se.Search(*query, *k)
	if len(hits) == 0 {
		fmt.Println("no results")
		return nil
	}
	for i, h := range hits {
		fmt.Printf("%2d. %s\n", i+1, h)
	}
	return nil
}

func cmdWalk(args []string) error {
	fs := flag.NewFlagSet("walk", flag.ExitOnError)
	path := fs.String("lake", "", "lake path (json or bin)")
	query := fs.String("q", "", "intent query")
	dims := fs.Int("dims", 1, "organization dimensions")
	seed := fs.Int64("seed", 0, "walk seed (0 = greedy)")
	_ = fs.Parse(args) // ExitOnError: Parse exits on bad flags
	if *query == "" {
		return fmt.Errorf("missing -q")
	}
	l, err := loadLake(*path)
	if err != nil {
		return err
	}
	cfg := lakenav.DefaultConfig()
	cfg.Dimensions = *dims
	org, err := lakenav.Organize(l, cfg)
	if err != nil {
		return err
	}
	var rng *rand.Rand
	if *seed != 0 {
		rng = rand.New(rand.NewSource(*seed))
	}
	for i, label := range org.Walk(*query, rng) {
		fmt.Printf("%s%s\n", indent(i), label)
	}
	return nil
}

func indent(n int) string {
	out := make([]byte, 2*n)
	for i := range out {
		out[i] = ' '
	}
	return string(out)
}
