package main

import (
	"fmt"
	"runtime"
	"sync"
)

// Options configures one Analyze run.
type Options struct {
	// Checks selects checks by name; nil or empty runs the full suite.
	Checks []string
}

// Analyze runs the selected checks over the module: directives are
// indexed first (AST-only), the module is type-checked, every
// (check, package) pair executes in parallel workers, then each
// check's module pass combines the facts, and finally ignore
// directives are applied and the result is sorted.
func Analyze(m *Module, opts Options) ([]Finding, error) {
	checks, err := selectChecks(opts.Checks)
	if err != nil {
		return nil, err
	}
	m.Directives = buildDirectives(m)

	// Type-check once, then prebuild the cross-package indexes the
	// concurrency checks consult, so the parallel phase below is
	// read-only on Module.
	if err := m.TypeCheck(); err != nil {
		return nil, err
	}
	m.prebuildIndexes()

	type job struct {
		check *Check
		pkg   *Package
	}
	var jobs []job
	results := make(map[*Check]map[string]PkgResult, len(checks))
	for _, c := range checks {
		results[c] = make(map[string]PkgResult, len(m.Pkgs))
		for _, p := range m.Pkgs {
			jobs = append(jobs, job{check: c, pkg: p})
		}
	}

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
			}
		}()
	}
	for _, j := range jobs {
		ch <- j
	}
	close(ch)
	wg.Wait()

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
