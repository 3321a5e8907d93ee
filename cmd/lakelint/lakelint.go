// Command lakelint is the repository's invariant analyzer: a pure-
// stdlib static-analysis pass (go/ast + go/parser + go/types, no
// x/tools) that mechanically enforces the contracts the rest of the
// codebase documents in comments — the setTopic cache funnel, the
// serializable-RNG determinism rule, the Context-first API surface,
// the no-dropped-errors posture, the obs metric-name scheme, the
// atomicio durability funnel, and (type-aware, since v2) frozen-
// snapshot immutability, hot-path allocation freedom, goroutine
// join/cancel discipline, mutex hold/ordering hygiene, and exported
// identifiers that only tests reach.
// `make lint` runs it over the whole module; CI gates merges on it.
// DESIGN.md §10 and §15 list each check, the contract it pins, and
// how to extend the suite.
package main

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one invariant violation.
type Finding struct {
	// File is the offending file, relative to the module root.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Check names the invariant check that fired.
	Check string `json:"check"`
	// Msg describes the violation and how to fix it.
	Msg string `json:"message"`
}

// String renders the finding in the canonical file:line: [check] form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.File, f.Line, f.Check, f.Msg)
}

// Fact is one cross-package observation a per-package pass exports for
// its check's module pass: a metric-name registration, a lock-order
// edge.
type Fact struct {
	// Kind is a check-defined discriminator.
	Kind string
	// Key is the fact's identity (a metric name, an "A=>B" lock edge).
	Key string
	// File/Line/Col locate the fact for module-pass findings.
	File string
	Line int
	Col  int
}

// PkgResult is what one check produces for one package: local findings
// plus facts for the check's module pass.
type PkgResult struct {
	Findings []Finding
	Facts    []Fact
}

// Check is one invariant analyzer.
type Check struct {
	// Name is the identifier used in findings and the -checks flag.
	Name string
	// Doc is the one-line contract description shown by -list.
	Doc string
	// Pkg analyzes one package. Runs concurrently across packages, so
	// it may only read the Module.
	Pkg func(m *Module, p *Package) PkgResult
	// Module, when non-nil, runs once after every package pass with the
	// merged facts of this check, for rules that need cross-package
	// context: name uniqueness, lock-order consistency.
	Module func(m *Module, facts []Fact) []Finding
}

// AllChecks is the invariant suite, in documentation order.
var AllChecks = []*Check{
	topicfunnelCheck,
	detrandCheck,
	ctxflowCheck,
	errdropCheck,
	obsnamesCheck,
	atomicfunnelCheck,
	immutfreezeCheck,
	hotpathCheck,
	goroleakCheck,
	lockholdCheck,
	deadexportCheck,
}

// RunChecks runs the named checks (nil = all) over a loaded module and
// returns the merged findings sorted by position then check name —
// the entry point the fixture tests use.
func RunChecks(m *Module, names []string) ([]Finding, error) {
	return Analyze(m, Options{Checks: names})
}

// sortFindings orders findings by position then check name.
func sortFindings(out []Finding) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Msg < b.Msg
	})
}

// finding books one violation at pos.
func finding(m *Module, pos token.Pos, check, format string, args ...any) Finding {
	p := m.Fset.Position(pos)
	return Finding{
		File:  p.Filename,
		Line:  p.Line,
		Col:   p.Column,
		Check: check,
		Msg:   fmt.Sprintf(format, args...),
	}
}

// fact books one cross-package observation at pos.
func fact(m *Module, pos token.Pos, kind, key string) Fact {
	p := m.Fset.Position(pos)
	return Fact{Kind: kind, Key: key, File: p.Filename, Line: p.Line, Col: p.Column}
}

// isCorePackage reports whether pkg is the determinism-critical core
// package (matched by path suffix so fixture trees can replicate it).
func isCorePackage(p *Package) bool {
	path := strings.TrimSuffix(p.Path, " [test]")
	return path == "internal/core" || strings.HasSuffix(path, "/internal/core")
}

// isServePackage reports whether pkg is the serving fast-path package.
func isServePackage(p *Package) bool {
	path := strings.TrimSuffix(p.Path, " [test]")
	return path == "internal/serve" || strings.HasSuffix(path, "/internal/serve")
}

// funcKey names a declared function the way allowlists refer to it:
// "Name" for functions, "Recv.Name" for methods (pointer stripped).
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fd.Name.Name
	}
	return fd.Name.Name
}

// pkgNameOf resolves an identifier to the import path of the package
// it names, or "" when the identifier is not a package qualifier.
func pkgNameOf(p *Package, id *ast.Ident) string {
	if obj, ok := p.Info.Uses[id].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// calleeObject resolves the function or method object a call invokes,
// or nil for calls through function values, conversions, and builtins.
func calleeObject(p *Package, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return p.Info.Uses[fun]
	case *ast.SelectorExpr:
		return p.Info.Uses[fun.Sel]
	}
	return nil
}

// namedOf unwraps pointers and aliases down to the named type of t, or
// nil when t has none.
func namedOf(t types.Type) *types.Named {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// typeKey renders a named type as the "pkgpath.Name" key the directive
// index uses, with the package path module-relative so fixtures can
// replicate annotated packages. Returns "" for types outside any
// package (builtins).
func typeKey(m *Module, named *types.Named) string {
	obj := named.Obj()
	if obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path == m.Path {
		path = ""
	} else if rest, ok := strings.CutPrefix(path, m.Path+"/"); ok {
		path = rest
	}
	return path + "." + obj.Name()
}

// exprString renders a (small) expression for a finding message.
func exprString(m *Module, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, m.Fset, e); err != nil {
		return "expression"
	}
	return sb.String()
}

// eachFuncBody walks the function declarations of a package's
// production files, giving the callback the declaring file, the
// declaration, and its allowlist key. Package-level variable
// initializers are visited with fd == nil. Test files are skipped:
// the legacy style checks exempt them by documented contract (use
// eachFuncBodyAll for the type-aware checks, which do not).
func eachFuncBody(p *Package, fn func(filename string, fd *ast.FuncDecl, node ast.Node)) {
	eachFuncBodyWhere(p, false, func(filename string, _ bool, fd *ast.FuncDecl, node ast.Node) {
		fn(filename, fd, node)
	})
}

// eachFuncBodyAll is eachFuncBody over production and test files
// alike; the callback additionally learns whether the file is a test
// file.
func eachFuncBodyAll(p *Package, fn func(filename string, isTest bool, fd *ast.FuncDecl, node ast.Node)) {
	eachFuncBodyWhere(p, true, fn)
}

func eachFuncBodyWhere(p *Package, includeTests bool, fn func(filename string, isTest bool, fd *ast.FuncDecl, node ast.Node)) {
	for i, f := range p.Files {
		if p.Test[i] && !includeTests {
			continue
		}
		name := p.Filenames[i]
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Body != nil {
					fn(name, p.Test[i], d, d.Body)
				}
			case *ast.GenDecl:
				fn(name, p.Test[i], nil, d)
			}
		}
	}
}
