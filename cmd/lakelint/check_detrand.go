package main

import (
	"go/ast"
)

// detrand enforces the serializable-RNG determinism contract inside
// internal/core (rng.go): checkpoints capture the entire generator in
// one uint64, so every stochastic path must draw from the injected
// xorshift64* source. Global math/rand draws (hidden shared state),
// rand.NewSource (607 words of unserializable state), and bare wall-
// clock reads are all forbidden; the explicit allowlist carries the
// sanctioned wall-clock sites, the optimizer's observation-only timing
// stamps.
var detrandCheck = &Check{
	Name: "detrand",
	Doc:  "internal/core draws randomness only from the serializable RNG; wall-clock reads allowlisted",
	Pkg:  runDetrand,
}

// detrandForbiddenRand are the math/rand package-level functions that
// use the global (or an unserializable) source.
var detrandForbiddenRand = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "Perm": true, "Shuffle": true,
	"NormFloat64": true, "ExpFloat64": true, "Seed": true, "Read": true,
	"NewSource": true,
}

// detrandForbiddenTime are the wall-clock reads covered by the check.
var detrandForbiddenTime = map[string]bool{"Now": true, "Since": true}

// detrandAllowedWallclock is the explicit allowlist: functions in
// internal/core that may read the wall clock. All of them feed
// observation-only outputs (stats durations, progress events) that
// never influence a search trajectory.
var detrandAllowedWallclock = map[string]bool{
	"search.run":          true, // wall-clock start stamp for stats.Duration
	"search.finish":       true, // stats.Duration on the final stats
	"search.emitProgress": true, // ElapsedMS on progress events
	"ReoptimizeLocal":     true, // stats.Duration on incremental-apply stats
}

func runDetrand(m *Module, p *Package) PkgResult {
	if !isCorePackage(p) {
		return PkgResult{}
	}
	var out []Finding
	eachFuncBody(p, func(_ string, fd *ast.FuncDecl, body ast.Node) {
		key := "package-level declaration"
		if fd != nil {
			key = funcKey(fd)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			qual, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok {
				return true
			}
			switch pkgNameOf(p, qual) {
			case "math/rand", "math/rand/v2":
				if detrandForbiddenRand[sel.Sel.Name] {
					hint := "draw from the injected serializable *rand.Rand (rng.go) instead"
					if sel.Sel.Name == "NewSource" {
						hint = "use newSearchSource/newSearchRand (rng.go); rand.NewSource state cannot be checkpointed"
					}
					out = append(out, finding(m, sel.Pos(), "detrand",
						"rand.%s in %s: %s", sel.Sel.Name, key, hint))
				}
			case "time":
				if detrandForbiddenTime[sel.Sel.Name] && (fd == nil || !detrandAllowedWallclock[key]) {
					out = append(out, finding(m, sel.Pos(), "detrand",
						"time.%s in %s: wall-clock reads in internal/core are limited to the detrand allowlist (inject a clock or extend detrandAllowedWallclock with justification)", sel.Sel.Name, key))
				}
			}
			return true
		})
	})
	return PkgResult{Findings: out}
}
