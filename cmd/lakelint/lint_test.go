package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// Fixture modules under testdata/ annotate expected findings with
//
//	// want <check> "<message substring>"
//
// comments on the offending line. Each fixture test loads the module,
// runs the full check suite, and requires an exact 1:1 match between
// findings and want annotations — an unexpected finding fails the test
// just as hard as a missing one, so the fixtures also pin down what the
// checks must NOT flag.
var wantRE = regexp.MustCompile(`// want (\w+) "([^"]*)"`)

type want struct {
	file   string
	line   int
	check  string
	substr string
	hit    bool
}

func collectWants(t *testing.T, root string) []*want {
	t.Helper()
	var wants []*want
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRE.FindAllStringSubmatch(line, -1) {
				wants = append(wants, &want{
					file:   filepath.ToSlash(rel),
					line:   i + 1,
					check:  m[1],
					substr: m[2],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("collecting wants: %v", err)
	}
	return wants
}

func runFixture(t *testing.T, dir string) {
	t.Helper()
	m, err := LoadModule(dir)
	if err != nil {
		t.Fatalf("LoadModule(%s): %v", dir, err)
	}
	findings, err := RunChecks(m, nil)
	if err != nil {
		t.Fatalf("RunChecks: %v", err)
	}
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations", dir)
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if w.hit || w.file != filepath.ToSlash(f.File) || w.line != f.Line || w.check != f.Check {
				continue
			}
			if !strings.Contains(f.Msg, w.substr) {
				continue
			}
			w.hit = true
			matched = true
			break
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("missing finding: %s:%d [%s] containing %q", w.file, w.line, w.check, w.substr)
		}
	}
}

func TestTopicfunnelFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "topicfunnel")) }

func TestDetrandFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "detrand")) }

func TestCtxflowFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "ctxflow")) }

func TestErrdropFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "errdrop")) }

func TestObsnamesFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "obsnames")) }

func TestAtomicfunnelFixture(t *testing.T) {
	runFixture(t, filepath.Join("testdata", "atomicfunnel"))
}

func TestImmutfreezeFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "immutfreeze")) }

func TestHotpathFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "hotpath")) }

func TestGoroleakFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "goroleak")) }

func TestLockholdFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "lockhold")) }

func TestDeadexportFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "deadexport")) }

// TestTestfilesFixture pins the loader contract: _test.go files (both
// in-package and external test packages) are analyzed under the same
// rules as production code by the new checks, the legacy checks keep
// their test-file exemption, and build-constrained files are excluded
// exactly as go build excludes them.
func TestTestfilesFixture(t *testing.T) { runFixture(t, filepath.Join("testdata", "testfiles")) }

// TestRepoClean is the gate that makes the suite mean something: the
// repository itself must hold every invariant the checks enforce.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short mode")
	}
	m, err := LoadModule(filepath.Join("..", ".."))
	if err != nil {
		t.Fatalf("LoadModule(repo root): %v", err)
	}
	// lakelint holds itself to the suite: the whole-module run must
	// cover its own package.
	self := false
	for _, p := range m.Pkgs {
		self = self || p.Path == "lakenav/cmd/lakelint"
	}
	if !self {
		t.Errorf("module load is missing lakenav/cmd/lakelint")
	}
	findings, err := RunChecks(m, nil)
	if err != nil {
		t.Fatalf("RunChecks: %v", err)
	}
	for _, f := range findings {
		t.Errorf("repo violates invariant: %s", f)
	}
}

// TestRunJSON exercises the CLI path end to end: nonzero exit on
// findings and a machine-readable report on stdout.
func TestRunJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-json", "-", filepath.Join("testdata", "errdrop")}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1 (stderr: %s)", code, stderr.String())
	}
	var rep report
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, stdout.String())
	}
	if rep.Module != "errfix" {
		t.Errorf("report module = %q, want errfix", rep.Module)
	}
	if len(rep.Findings) != 3 {
		t.Errorf("report has %d findings, want 3:\n%s", len(rep.Findings), stdout.String())
	}
	for _, f := range rep.Findings {
		if f.Check != "errdrop" {
			t.Errorf("unexpected check %q in finding %s", f.Check, f)
		}
	}
}

// TestListAndSelect covers -list and the -checks filter.
func TestListAndSelect(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit code = %d (stderr: %s)", code, stderr.String())
	}
	for _, c := range AllChecks {
		if !strings.Contains(stdout.String(), c.Name) {
			t.Errorf("-list output missing check %q", c.Name)
		}
	}

	stdout.Reset()
	stderr.Reset()
	// Selecting a check that cannot fire in this fixture yields a clean run.
	if code := run([]string{"-checks", "topicfunnel", filepath.Join("testdata", "errdrop")}, &stdout, &stderr); code != 0 {
		t.Errorf("-checks topicfunnel over errdrop fixture: exit %d, want 0 (stderr: %s)", code, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-checks", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Errorf("unknown check name: exit %d, want 2", code)
	}
}
