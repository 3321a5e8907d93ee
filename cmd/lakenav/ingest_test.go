package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"lakenav"
	"lakenav/internal/journal"
	"lakenav/internal/navhttp"
)

// ingestFixture writes a small base lake and organization, the
// immutable artifacts `lakenav ingest` replays over.
func ingestFixture(t *testing.T) (lakePath, orgPath, journalPath string) {
	t.Helper()
	dir := t.TempDir()
	l := lakenav.NewLake()
	l.AddTable("fish", []string{"fisheries"},
		lakenav.Column{Name: "species", Values: []string{"pacific salmon", "atlantic cod"}})
	l.AddTable("crops", []string{"agriculture"},
		lakenav.Column{Name: "crop", Values: []string{"winter wheat", "spring barley"}})
	l.AddTable("transit", []string{"city"},
		lakenav.Column{Name: "route", Values: []string{"harbour loop", "night bus"}})
	lakePath = filepath.Join(dir, "lake.json")
	if err := l.SaveJSON(lakePath); err != nil {
		t.Fatal(err)
	}
	reloaded, err := lakenav.LoadJSON(lakePath)
	if err != nil {
		t.Fatal(err)
	}
	org, err := lakenav.Organize(reloaded, lakenav.Config{Dimensions: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	orgPath = filepath.Join(dir, "org.bin")
	if err := org.Save(orgPath, lakenav.FormatBin); err != nil {
		t.Fatal(err)
	}
	return lakePath, orgPath, filepath.Join(dir, "commits.journal")
}

func writeTableFile(t *testing.T, name string, table string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(table), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// replayHash recovers the journal the way a reader (navserver) does —
// stopping at any torn tail — and replays it over the base artifacts,
// returning the batch count and structure hash.
func replayHash(t *testing.T, lakePath, orgPath, journalPath string) (int, string) {
	t.Helper()
	l, err := lakenav.LoadJSON(lakePath)
	if err != nil {
		t.Fatal(err)
	}
	org, err := lakenav.LoadOrganization(l, orgPath)
	if err != nil {
		t.Fatal(err)
	}
	p, err := lakenav.NewIngestPipeline(l, org, lakenav.IngestConfig{})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := journal.ReadAll(journalPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Replay(batches); err != nil {
		t.Fatal(err)
	}
	return p.Batches(), p.Hash()
}

func TestCmdIngestCommitReplayExport(t *testing.T) {
	lakePath, orgPath, journalPath := ingestFixture(t)
	harbors := writeTableFile(t, "harbors.json",
		`{"name":"harbors","tags":["fisheries","port"],"columns":[{"name":"dock","values":["salmon pier","trawler berth"]}]}`)

	if err := cmdIngest([]string{"-lake", lakePath, "-org", orgPath, "-journal", journalPath,
		"-add", harbors, "-remove", "transit"}); err != nil {
		t.Fatal(err)
	}
	if n, _ := replayHash(t, lakePath, orgPath, journalPath); n != 1 {
		t.Fatalf("journal replays %d batches, want 1", n)
	}

	// A second invocation replays the existing commit, accepts another
	// batch, and exports the replayed organization.
	export := filepath.Join(t.TempDir(), "out.json")
	if err := cmdIngest([]string{"-lake", lakePath, "-org", orgPath, "-journal", journalPath,
		"-remove", "crops", "-export", export}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(export); err != nil || fi.Size() == 0 {
		t.Fatalf("export missing: %v", err)
	}
	if n, _ := replayHash(t, lakePath, orgPath, journalPath); n != 2 {
		t.Fatalf("journal replays %d batches, want 2", n)
	}
	// -status alone commits nothing.
	if err := cmdIngest([]string{"-lake", lakePath, "-org", orgPath, "-journal", journalPath, "-status"}); err != nil {
		t.Fatal(err)
	}
	if n, _ := replayHash(t, lakePath, orgPath, journalPath); n != 2 {
		t.Fatalf("-status committed a batch: %d", n)
	}
}

func TestCmdIngestRejectsBadBatchWithoutCommitting(t *testing.T) {
	lakePath, orgPath, journalPath := ingestFixture(t)
	if err := cmdIngest([]string{"-lake", lakePath, "-org", orgPath, "-journal", journalPath,
		"-remove", "no_such_table"}); err == nil {
		t.Fatal("removing a missing table succeeded")
	}
	if n, _ := replayHash(t, lakePath, orgPath, journalPath); n != 0 {
		t.Fatalf("rejected batch reached the journal: %d batches", n)
	}
	// Unknown JSON fields in a table file fail loudly.
	bad := writeTableFile(t, "bad.json", `{"name":"x","tagz":["a"]}`)
	if err := cmdIngest([]string{"-lake", lakePath, "-org", orgPath, "-journal", journalPath,
		"-add", bad}); err == nil {
		t.Fatal("table file with unknown field accepted")
	}
}

// TestCmdIngestKillAnywhere is the end-to-end crash model: a process
// writing the journal can die before, during, or after any byte of any
// append. Every byte-prefix of the journal must recover — via the
// reader's stop-at-torn-tail rule — to exactly the state a clean run
// over some committed batch prefix produces, never to an error and
// never to a state no clean run could reach.
func TestCmdIngestKillAnywhere(t *testing.T) {
	lakePath, orgPath, journalPath := ingestFixture(t)
	harbors := writeTableFile(t, "harbors.json",
		`{"name":"harbors","tags":["fisheries","port"],"columns":[{"name":"dock","values":["salmon pier","trawler berth"]}]}`)
	mills := writeTableFile(t, "mills.json",
		`{"name":"mills","tags":["agriculture"],"columns":[{"name":"mill","values":["stone mill","grain silo"]}]}`)
	for _, args := range [][]string{
		{"-add", harbors},
		{"-remove", "transit"},
		{"-add", mills, "-remove", "fish"},
	} {
		base := []string{"-lake", lakePath, "-org", orgPath, "-journal", journalPath}
		if err := cmdIngest(append(base, args...)); err != nil {
			t.Fatal(err)
		}
	}
	full, err := os.ReadFile(journalPath)
	if err != nil {
		t.Fatal(err)
	}

	// Clean-run hashes for every committed prefix.
	wantHash := make(map[int]string)
	for n := 0; n <= 3; n++ {
		dir := t.TempDir()
		trunc := filepath.Join(dir, "j")
		w, _, err := journal.Open(trunc)
		if err != nil {
			t.Fatal(err)
		}
		all, err := journal.ReadAll(journalPath)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range all[:n] {
			if err := w.Append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, h := replayHash(t, lakePath, orgPath, trunc)
		if got != n {
			t.Fatalf("clean prefix %d replays %d batches", n, got)
		}
		wantHash[n] = h
	}

	torn := filepath.Join(t.TempDir(), "torn")
	for cut := 0; cut <= len(full); cut++ {
		if err := os.WriteFile(torn, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		n, h := replayHash(t, lakePath, orgPath, torn)
		if want, ok := wantHash[n]; !ok || h != want {
			t.Fatalf("cut at %d recovered %d batches with hash %s, want %s", cut, n, h, wantHash[n])
		}
	}
}

// ingestStatus runs `lakenav ingest -status` with extra flags and
// returns the structure hash it prints.
func ingestStatus(t *testing.T, args ...string) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	stdout := os.Stdout
	os.Stdout = out
	err = cmdIngest(append(args, "-status"))
	os.Stdout = stdout
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(printed), "\n") {
		if h, ok := strings.CutPrefix(line, "hash: "); ok {
			return h
		}
	}
	t.Fatalf("ingest -status printed no hash:\n%s", printed)
	return ""
}

// The writer and the server agree under reoptimization too: the hash
// `lakenav ingest -reoptimize -status` prints for a journal equals the
// hash of the generation navserver publishes for it with -reoptimize,
// whose ingest settings are IngestConfig{Reoptimize: true}.
func TestCmdIngestReoptimizeMatchesServer(t *testing.T) {
	lakePath, orgPath, journalPath := ingestFixture(t)
	harbors := writeTableFile(t, "harbors.json",
		`{"name":"harbors","tags":["fisheries","port"],"columns":[{"name":"dock","values":["salmon pier","trawler berth"]}]}`)
	mills := writeTableFile(t, "mills.json",
		`{"name":"mills","tags":["agriculture","port"],"columns":[{"name":"mill","values":["stone mill","grain silo"]}]}`)
	base := []string{"-lake", lakePath, "-org", orgPath, "-journal", journalPath, "-reoptimize"}
	for _, args := range [][]string{{"-add", harbors}, {"-add", mills, "-remove", "transit"}} {
		if err := cmdIngest(append(base, args...)); err != nil {
			t.Fatal(err)
		}
	}
	writer := ingestStatus(t, base...)

	l, err := lakenav.LoadJSON(lakePath)
	if err != nil {
		t.Fatal(err)
	}
	org, err := lakenav.LoadOrganization(l, orgPath)
	if err != nil {
		t.Fatal(err)
	}
	s := navhttp.New(lakenav.NewSearchEngine(l), navhttp.Options{Generations: 3})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := navhttp.StartIngest(ctx, s, l, org, journalPath, time.Hour, lakenav.IngestConfig{Reoptimize: true}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/admin/generations", nil))
	var resp struct {
		Generations []struct {
			Seq     int    `json:"seq"`
			Hash    string `json:"hash"`
			Current bool   `json:"current"`
		} `json:"generations"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("/admin/generations: %v (%s)", err, rec.Body)
	}
	for _, g := range resp.Generations {
		if g.Current {
			if g.Seq != 2 || g.Hash != writer {
				t.Fatalf("server generation %d hash %s, writer printed %s after 2 batches", g.Seq, g.Hash, writer)
			}
			return
		}
	}
	t.Fatalf("no current generation in %s", rec.Body)
}
