package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// engineVersion keys the result cache together with the Go toolchain
// version; bump it whenever any check's semantics change so stale
// results cannot survive a lint upgrade through unchanged sources.
const engineVersion = "lakelint/2.1.0"

// Options configures one Analyze run.
type Options struct {
	// Checks selects checks by name; nil or empty runs the full suite.
	Checks []string
	// CacheDir, when non-empty, enables the per-(check,package) result
	// cache. A run whose every pair hits skips go/types entirely.
	CacheDir string
	// Only restricts reported findings to files under this module-
	// relative path prefix (the CI self-clean gate passes cmd/lakelint).
	// Analysis still covers the whole module — suppression bookkeeping
	// must see every finding — only the report is filtered.
	Only string
}

// Analyze runs the selected checks over the module: directives are
// indexed first (AST-only), then every (check, package) pair executes —
// from the content-hash cache when possible, in parallel workers
// otherwise — then each check's module pass combines the facts, and
// finally ignore directives are applied and the result is sorted.
func Analyze(m *Module, opts Options) ([]Finding, error) {
	checks, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	m.Directives = buildDirectives(m)

	type job struct {
		check *Check
		pkg   *Package
		key   string // cache key; "" when the cache is off
	}
	var (
		jobs    []job
		results = make(map[*Check]map[string]PkgResult, len(checks))
	)
	for _, c := range checks {
		results[c] = make(map[string]PkgResult, len(m.Pkgs))
	}
	hashes := depHashes(m)
	for _, c := range checks {
		for _, p := range m.Pkgs {
			j := job{check: c, pkg: p}
			if opts.CacheDir != "" {
				j.key = cacheKey(c.Name, p.Path, hashes[p.Path])
				if res, ok := cacheLoad(opts.CacheDir, j.key); ok {
					results[c][p.Path] = res
					continue
				}
			}
			jobs = append(jobs, j)
		}
	}

	if len(jobs) > 0 {
		// At least one pair missed: pay for type-checking once, then
		// prebuild the cross-package indexes the concurrency checks
		// consult, so the parallel phase below is read-only on Module.
		if err := m.TypeCheck(); err != nil {
			return nil, err
		}
		m.prebuildIndexes()

		var (
			mu sync.Mutex
			wg sync.WaitGroup
		)
		workers := runtime.GOMAXPROCS(0)
		if workers > len(jobs) {
			workers = len(jobs)
		}
		ch := make(chan job)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range ch {
					res := j.check.Pkg(m, j.pkg)
					mu.Lock()
					results[j.check][j.pkg.Path] = res
					mu.Unlock()
					if j.key != "" {
						cacheStore(opts.CacheDir, j.key, res)
					}
				}
			}()
		}
		for _, j := range jobs {
			ch <- j
		}
		close(ch)
		wg.Wait()
	}

	var out []Finding
	out = append(out, m.Directives.malformed...)
	for _, c := range checks {
		var facts []Fact
		for _, p := range m.Pkgs { // module order keeps facts deterministic
			res := results[c][p.Path]
			out = append(out, res.Findings...)
			facts = append(facts, res.Facts...)
		}
		if c.Module != nil {
			out = append(out, c.Module(m, facts)...)
		}
	}

	// The unused-suppression ratchet is only sound when the full suite
	// ran: an ignore for a check that was not selected is not stale.
	out = m.Directives.applyIgnores(m, out, len(opts.Checks) == 0)
	if opts.Only != "" {
		prefix := strings.TrimSuffix(filepath.ToSlash(opts.Only), "/")
		kept := out[:0]
		for _, f := range out {
			if f.File == prefix || strings.HasPrefix(f.File, prefix+"/") {
				kept = append(kept, f)
			}
		}
		out = kept
	}
	sortFindings(out)
	return out, nil
}

// prebuildIndexes materializes the lazily-built cross-package lookup
// tables before the parallel fan-out, so check workers only ever read
// them.
func (m *Module) prebuildIndexes() {
	m.FuncDeclOf(nil)
	buildLockSets(m)
}

// selectChecks resolves check names (nil = all) against AllChecks.
func selectChecks(names []string) ([]*Check, error) {
	if len(names) == 0 {
		return AllChecks, nil
	}
	byName := make(map[string]*Check, len(AllChecks))
	for _, c := range AllChecks {
		byName[c.Name] = c
	}
	var out []*Check
	seen := make(map[string]bool, len(names))
	for _, name := range names {
		c, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("lakelint: unknown check %q (see -list)", name)
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, c)
		}
	}
	return out, nil
}

// depHashes digests, per package, the package's own sources plus the
// sources of its transitive module-internal dependencies. Together with
// the engine and toolchain versions that is everything a (pure) check
// can observe, which is what makes the result cache sound.
func depHashes(m *Module) map[string][sha256.Size]byte {
	byPath := make(map[string]*Package, len(m.Pkgs))
	for _, p := range m.Pkgs {
		byPath[p.Path] = p
	}
	closures := make(map[string][]string, len(m.Pkgs))
	var closure func(p *Package) []string
	closure = func(p *Package) []string {
		if c, ok := closures[p.Path]; ok {
			return c
		}
		closures[p.Path] = nil // cycle guard; real cycles fail in TypeCheck
		set := map[string]bool{p.Path: true}
		for _, ip := range p.Imports {
			dep, ok := byPath[ip]
			if !ok {
				continue
			}
			for _, path := range closure(dep) {
				set[path] = true
			}
		}
		paths := make([]string, 0, len(set))
		for path := range set {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		closures[p.Path] = paths
		return paths
	}
	out := make(map[string][sha256.Size]byte, len(m.Pkgs))
	for _, p := range m.Pkgs {
		h := sha256.New()
		for _, path := range closure(p) {
			fmt.Fprintf(h, "%s\n", path)
			hash := byPath[path].SrcHash
			_, _ = h.Write(hash[:])
		}
		var digest [sha256.Size]byte
		copy(digest[:], h.Sum(nil))
		out[p.Path] = digest
	}
	return out
}

// cacheKey derives the cache filename stem for one (check, package)
// pair from everything that can change the result.
func cacheKey(check, pkgPath string, depHash [sha256.Size]byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n%s\n", engineVersion, runtime.Version(), check, pkgPath)
	_, _ = h.Write(depHash[:])
	return hex.EncodeToString(h.Sum(nil))
}

// cacheLoad reads one cached PkgResult; any failure (missing file,
// torn write, old schema) is a miss.
func cacheLoad(dir, key string) (PkgResult, bool) {
	data, err := os.ReadFile(filepath.Join(dir, key+".json"))
	if err != nil {
		return PkgResult{}, false
	}
	var res PkgResult
	if err := json.Unmarshal(data, &res); err != nil {
		return PkgResult{}, false
	}
	return res, true
}

// cacheStore writes one PkgResult best-effort: the cache is a pure
// accelerator, so a failed write only costs the next run a re-analysis.
// The write is staged through a per-key temp file and renamed so a
// concurrent reader can never observe a torn entry.
func cacheStore(dir, key string, res PkgResult) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	data, err := json.Marshal(res)
	if err != nil {
		return
	}
	tmp := filepath.Join(dir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	if err := os.Rename(tmp, filepath.Join(dir, key+".json")); err != nil {
		_ = os.Remove(tmp)
	}
}
