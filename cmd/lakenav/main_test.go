package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lakenav"
)

// genQuickLake writes a small synthetic lake for the other subcommand
// tests.
func genQuickLake(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "lake.json")
	if err := cmdGen([]string{"-kind", "socrata", "-quick", "-out", path, "-seed", "3"}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCmdGenTagCloud(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tc.json")
	if err := cmdGen([]string{"-kind", "tagcloud", "-quick", "-out", path}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("output missing: %v", err)
	}
}

func TestCmdGenUnknownKind(t *testing.T) {
	if err := cmdGen([]string{"-kind", "nope"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

func TestCmdStats(t *testing.T) {
	path := genQuickLake(t)
	if err := cmdStats([]string{"-lake", path}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{}); err == nil {
		t.Error("missing -lake accepted")
	}
}

func TestCmdOrganizeAndExport(t *testing.T) {
	path := genQuickLake(t)
	orgPath := filepath.Join(t.TempDir(), "org.bin")
	if err := cmdOrganize([]string{"-lake", path, "-dims", "2", "-export", orgPath}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(orgPath); err != nil || fi.Size() == 0 {
		t.Fatalf("exported org missing: %v", err)
	}
	// The default -format writes what -org flags load.
	l, err := lakenav.LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lakenav.LoadOrganization(l, orgPath); err != nil {
		t.Fatalf("default export does not load: %v", err)
	}
}

// -progress streams one valid NDJSON event per optimizer iteration
// plus one closing event per search — the contract an operator's
// `tail -f | jq` session depends on.
func TestCmdOrganizeProgressNDJSON(t *testing.T) {
	path := genQuickLake(t)
	progressPath := filepath.Join(t.TempDir(), "events.ndjson")
	if err := cmdOrganize([]string{"-lake", path, "-progress", progressPath}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(progressPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	var events []lakenav.ProgressEvent
	scanner := bufio.NewScanner(f)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	for scanner.Scan() {
		var p lakenav.ProgressEvent
		if err := json.Unmarshal(scanner.Bytes(), &p); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", len(events)+1, err, scanner.Text())
		}
		events = append(events, p)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if len(events) < 2 {
		t.Fatalf("only %d events streamed", len(events))
	}
	finals, iterations := 0, 0
	for _, p := range events {
		if p.Accepted+p.Rejected != p.Iteration {
			t.Errorf("inconsistent event %+v", p)
		}
		if p.Final {
			finals++
			iterations += p.Iteration
		} else if p.StatesVisitedFrac <= 0 {
			t.Errorf("iteration event without a states visited fraction: %+v", p)
		}
	}
	if finals != 1 {
		t.Errorf("%d closing events for a 1-dimension build", finals)
	}
	// Every iteration got its own line: per-iteration events plus the
	// closing ones account for the whole file.
	if got := len(events) - finals; got != iterations {
		t.Errorf("%d per-iteration events for %d iterations", got, iterations)
	}
}

func TestCmdOrganizeProgressRequiresOptimize(t *testing.T) {
	path := genQuickLake(t)
	progressPath := filepath.Join(t.TempDir(), "events.ndjson")
	if err := cmdOrganize([]string{"-lake", path, "-no-opt", "-progress", progressPath}); err == nil {
		t.Error("-progress with -no-opt accepted")
	}
}

func TestCmdSearch(t *testing.T) {
	path := genQuickLake(t)
	if err := cmdSearch([]string{"-lake", path, "-q", "topic000_w0000", "-k", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdSearch([]string{"-lake", path}); err == nil {
		t.Error("missing -q accepted")
	}
}

func TestCmdWalk(t *testing.T) {
	path := genQuickLake(t)
	if err := cmdWalk([]string{"-lake", path, "-q", "topic001_w0000 topic001_w0001"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdWalk([]string{"-lake", path}); err == nil {
		t.Error("missing -q accepted")
	}
}
