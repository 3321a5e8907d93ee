package main

import (
	"fmt"
	"go/ast"
	gobuild "go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one loaded package of the module: the production sources
// plus, in the same type-check unit, its in-package _test.go files, so
// test code is analyzed under the same type-aware rules as production
// code. An external test package (package foo_test) becomes its own
// Package whose Path carries a " [test]" suffix.
type Package struct {
	// Path is the package's import path (external test packages append
	// " [test]", which no import statement can reference).
	Path string
	// Dir is the package directory relative to the module root.
	Dir string
	// Name is the package name ("main" for commands).
	Name string
	// Files and Filenames are the parsed sources, parallel slices in
	// lexical filename order (production files first, then in-package
	// test files). Filenames are relative to the module root, which is
	// also how positions render in findings.
	Files     []*ast.File
	Filenames []string
	// Test marks, parallel to Files, which files are _test.go files.
	// The legacy style checks keep their documented test exemption;
	// the type-aware invariant checks analyze test files too.
	Test []bool
	// Imports is the sorted set of module-internal import paths across
	// all files, which orders type-checking.
	Imports []string
	// Types and Info carry the go/types results for the package; they
	// are nil until Module.TypeCheck runs.
	Types *types.Package
	Info  *types.Info
}

// IsTestFile reports whether the i'th file of the package is a test
// file.
func (p *Package) IsTestFile(i int) bool { return p.Test[i] }

// Module is a loaded module: every package including test files,
// parsed immediately and type-checked on demand (TypeCheck) against
// real stdlib and module types.
type Module struct {
	// Path is the module path from go.mod.
	Path string
	// Dir is the absolute module root.
	Dir string
	// Fset is the shared position table.
	Fset *token.FileSet
	// Pkgs is every loaded package in import-path order.
	Pkgs []*Package

	// Directives indexes every //lakelint: comment in the module; it is
	// built by Analyze before any check runs.
	Directives *DirectiveIndex

	typechecked bool

	// funcDecls maps function/method objects to their declarations,
	// built on first use after type-checking (goroleak and lockhold
	// resolve spawned or called bodies across packages through it);
	// funcPkgs carries each declaration's defining package, whose
	// types.Info is the one that can resolve identifiers in its body.
	funcDecls map[types.Object]*ast.FuncDecl
	funcPkgs  map[types.Object]*Package
	// lockSets caches, per function object, the type-based identities
	// of every mutex the function's body acquires (see check_lockhold).
	lockSets map[types.Object][]string
}

// LoadModule parses every package under dir (which must contain
// go.mod), including _test.go files, respecting build constraints. It
// is a stdlib-only substitute for x/tools' packages.Load. Parsing is
// eager; type-checking is left to (*Module).TypeCheck, which Analyze
// calls.
func LoadModule(dir string) (*Module, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(absDir, "go.mod"))
	if err != nil {
		return nil, err
	}

	// The source importer consults go/build's default context. Stdlib
	// cgo packages (net, os/user) cannot be type-checked from source
	// with cgo enabled — their Go sources reference cgo-generated
	// identifiers — so force the pure-Go variants, which exist for
	// every stdlib package.
	gobuild.Default.CgoEnabled = false

	fset := token.NewFileSet()
	pkgs, err := parseModule(fset, absDir, modPath)
	if err != nil {
		return nil, err
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return &Module{Path: modPath, Dir: absDir, Fset: fset, Pkgs: pkgs}, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", fmt.Errorf("lakelint: %w (run from the module root or pass its directory)", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lakelint: no module directive in %s", gomod)
}

// parseModule walks the module tree and parses every package.
func parseModule(fset *token.FileSet, root, modPath string) ([]*Package, error) {
	var pkgs []*Package
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirPkgs, err := parseDir(fset, root, modPath, path)
		if err != nil {
			return err
		}
		pkgs = append(pkgs, dirPkgs...)
		return nil
	})
	return pkgs, err
}

// parseDir parses the .go files of one directory — production and test
// files alike, each filtered through the build context so a file the
// compiler excludes on this platform is excluded here too (the same
// rule for fixture modules as for the repository). One directory can
// yield two packages: the production package augmented with its
// in-package test files, and an external test package (package X_test).
func parseDir(fset *token.FileSet, root, modPath, dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	importPath := modPath
	if rel != "." {
		importPath = modPath + "/" + filepath.ToSlash(rel)
	}
	base := &Package{Path: importPath, Dir: rel}
	xtest := &Package{Path: importPath + " [test]", Dir: rel}
	for _, e := range entries {
		fn := e.Name()
		if e.IsDir() || !strings.HasSuffix(fn, ".go") {
			continue
		}
		isTest := strings.HasSuffix(fn, "_test.go")
		// Respect build constraints uniformly: a file the compiler
		// excludes on this platform (e.g. the !unix mmap fallback on a
		// unix host, or a GOOS-tagged test file) would redeclare symbols
		// or assert platform behavior that does not hold here.
		if match, err := gobuild.Default.MatchFile(dir, fn); err != nil || !match {
			continue
		}
		relName := fn
		if rel != "." {
			relName = filepath.ToSlash(rel) + "/" + fn
		}
		src, err := os.ReadFile(filepath.Join(dir, fn))
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(fset, relName, src, parser.SkipObjectResolution|parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lakelint: parse: %w", err)
		}
		pkg := base
		if isTest && base.Name != "" && f.Name.Name == base.Name+"_test" {
			pkg = xtest
		} else if isTest && strings.HasSuffix(f.Name.Name, "_test") {
			pkg = xtest
		}
		if pkg.Name == "" {
			pkg.Name = f.Name.Name
		} else if pkg.Name != f.Name.Name {
			return nil, fmt.Errorf("lakelint: %s: packages %q and %q in one directory",
				rel, pkg.Name, f.Name.Name)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, relName)
		pkg.Test = append(pkg.Test, isTest)
		for _, spec := range f.Imports {
			ip := strings.Trim(spec.Path.Value, `"`)
			if ip == modPath || strings.HasPrefix(ip, modPath+"/") {
				pkg.Imports = append(pkg.Imports, ip)
			}
		}
	}
	var out []*Package
	for _, pkg := range []*Package{base, xtest} {
		if len(pkg.Files) == 0 {
			continue
		}
		sort.Strings(pkg.Imports)
		pkg.Imports = dedupStrings(pkg.Imports)
		out = append(out, pkg)
	}
	return out, nil
}

func dedupStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || s[i-1] != v {
			out = append(out, v)
		}
	}
	return out
}

// moduleImporter resolves module-internal imports from the packages
// type-checked so far and delegates everything else to the stdlib
// source importer.
type moduleImporter struct {
	modPath string
	done    map[string]*types.Package
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.done[path]; ok {
		return p, nil
	}
	if path == m.modPath || strings.HasPrefix(path, m.modPath+"/") {
		return nil, fmt.Errorf("lakelint: import cycle or missing module package %q", path)
	}
	return m.std.Import(path)
}

// TypeCheck type-checks every package in dependency order. It is
// idempotent.
func (m *Module) TypeCheck() error {
	if m.typechecked {
		return nil
	}
	if err := typecheckModule(m.Fset, m.Path, m.Pkgs); err != nil {
		return err
	}
	m.typechecked = true
	return nil
}

// typecheckModule type-checks the packages in dependency order.
// In-package test files are checked together with their package —
// test-only imports resolve like any other — and external test
// packages are checked after the production package they augment.
func typecheckModule(fset *token.FileSet, modPath string, pkgs []*Package) error {
	byPath := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	imp := &moduleImporter{
		modPath: modPath,
		done:    make(map[string]*types.Package),
		std:     importer.ForCompiler(fset, "source", nil),
	}

	// Depth-first over module-internal imports; visiting==true marks a
	// package on the current path, so revisiting it is a cycle.
	visiting := make(map[string]bool)
	var visit func(p *Package) error
	visit = func(p *Package) error {
		if p.Types != nil {
			return nil
		}
		if visiting[p.Path] {
			return fmt.Errorf("lakelint: import cycle through %s", p.Path)
		}
		visiting[p.Path] = true
		defer delete(visiting, p.Path)
		for _, ip := range p.Imports {
			if dep, ok := byPath[ip]; ok {
				if err := visit(dep); err != nil {
					return err
				}
			}
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		conf := types.Config{Importer: imp}
		tpkg, err := conf.Check(strings.TrimSuffix(p.Path, " [test]"), fset, p.Files, info)
		if err != nil {
			return fmt.Errorf("lakelint: typecheck %s: %w", p.Path, err)
		}
		p.Types, p.Info = tpkg, info
		if !strings.HasSuffix(p.Path, " [test]") {
			imp.done[p.Path] = tpkg
		}
		return nil
	}
	// Deterministic visit order: production packages first (external
	// test packages sort after their base thanks to the " [test]"
	// suffix ordering below any '/'-continued path... not guaranteed —
	// so do two explicit passes).
	var prod, tests []*Package
	for _, p := range pkgs {
		if strings.HasSuffix(p.Path, " [test]") {
			tests = append(tests, p)
		} else {
			prod = append(prod, p)
		}
	}
	for _, group := range [][]*Package{prod, tests} {
		for _, p := range group {
			if err := visit(p); err != nil {
				return err
			}
		}
	}
	return nil
}

// FuncDeclOf resolves a function or method object to its declaration
// anywhere in the module, or nil for objects without one (stdlib
// functions, function-typed variables). TypeCheck must have run; the
// index is prebuilt before the parallel check fan-out so concurrent
// callers only read it.
func (m *Module) FuncDeclOf(obj types.Object) *ast.FuncDecl {
	m.buildFuncIndex()
	return m.funcDecls[obj]
}

// FuncPkgOf resolves a function or method object to the Package whose
// types.Info covers its body.
func (m *Module) FuncPkgOf(obj types.Object) *Package {
	m.buildFuncIndex()
	return m.funcPkgs[obj]
}

func (m *Module) buildFuncIndex() {
	if m.funcDecls != nil {
		return
	}
	m.funcDecls = make(map[types.Object]*ast.FuncDecl)
	m.funcPkgs = make(map[types.Object]*Package)
	for _, p := range m.Pkgs {
		if p.Info == nil {
			continue
		}
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name != nil {
					if o := p.Info.Defs[fd.Name]; o != nil {
						m.funcDecls[o] = fd
						m.funcPkgs[o] = p
					}
				}
			}
		}
	}
}
