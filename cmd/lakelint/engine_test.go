package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// copyTree clones a fixture module into a writable directory so a test
// can edit its sources.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatalf("copying fixture %s: %v", src, err)
	}
}

func analyzeWithCache(t *testing.T, dir, cacheDir string) []Finding {
	t.Helper()
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", dir, err)
	}
	findings, err := Analyze(m, Options{CacheDir: cacheDir})
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return findings
}

// TestCacheReuseAndInvalidate pins the result cache's two obligations:
// a second run over unchanged sources reproduces the first run's
// findings from cache alone (the parse-only fast path), and editing a
// file changes the content hash, so the edited package re-analyzes and
// the new finding appears.
func TestCacheReuseAndInvalidate(t *testing.T) {
	dir := t.TempDir()
	copyTree(t, filepath.Join("testdata", "errdrop"), dir)
	cacheDir := filepath.Join(dir, ".cache")

	first := analyzeWithCache(t, dir, cacheDir)
	if len(first) != 3 {
		t.Fatalf("cold run: %d findings, want 3: %v", len(first), first)
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold run populated no cache entries (err %v)", err)
	}

	second := analyzeWithCache(t, dir, cacheDir)
	if !reflect.DeepEqual(first, second) {
		t.Errorf("cached run diverged:\nfirst:  %v\nsecond: %v", first, second)
	}

	// Append a fresh violation: the edited package must miss the cache
	// and the new finding must be reported.
	libPath := filepath.Join(dir, "lib", "lib.go")
	src, err := os.ReadFile(libPath)
	if err != nil {
		t.Fatal(err)
	}
	src = append(src, []byte("\nfunc extraDrop() {\n\tfail()\n}\n")...)
	if err := os.WriteFile(libPath, src, 0o644); err != nil {
		t.Fatal(err)
	}
	third := analyzeWithCache(t, dir, cacheDir)
	if len(third) != len(first)+1 {
		t.Fatalf("after edit: %d findings, want %d: %v", len(third), len(first)+1, third)
	}
}

// TestSARIFOutput checks the -sarif report parses and carries the
// findings with physical locations.
func TestSARIFOutput(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-sarif", "-", filepath.Join("testdata", "errdrop")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var doc sarifLog
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatalf("decoding -sarif output: %v\n%s", err, stdout.String())
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 {
		t.Fatalf("unexpected SARIF envelope: version %q, %d runs", doc.Version, len(doc.Runs))
	}
	run := doc.Runs[0]
	if run.Tool.Driver.Name != "lakelint" {
		t.Errorf("driver name = %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, c := range AllChecks {
		if !ruleIDs[c.Name] {
			t.Errorf("SARIF rules missing check %q", c.Name)
		}
	}
	if !ruleIDs[directiveCheck] {
		t.Errorf("SARIF rules missing the %q pseudo-check", directiveCheck)
	}
	if len(run.Results) != 3 {
		t.Fatalf("%d SARIF results, want 3", len(run.Results))
	}
	for _, r := range run.Results {
		if r.RuleID != "errdrop" || r.Level != "error" || r.Message.Text == "" {
			t.Errorf("unexpected result %+v", r)
		}
		if len(r.Locations) != 1 {
			t.Fatalf("result has %d locations", len(r.Locations))
		}
		loc := r.Locations[0].PhysicalLocation
		if loc.ArtifactLocation.URI != "lib/lib.go" || loc.Region.StartLine <= 0 {
			t.Errorf("bad location %+v", loc)
		}
	}
}

// TestOnlyFilter: -only narrows the report, not the analysis.
func TestOnlyFilter(t *testing.T) {
	fixture := filepath.Join("testdata", "errdrop")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-only", "lib", fixture}, &stdout, &stderr); code != 1 {
		t.Errorf("-only lib: exit %d, want 1 (findings live under lib/)", code)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-only", "nosuchdir", fixture}, &stdout, &stderr); code != 0 {
		t.Errorf("-only nosuchdir: exit %d, want 0 (stderr: %s)", code, stderr.String())
	}
}
