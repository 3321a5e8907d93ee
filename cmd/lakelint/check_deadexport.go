package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// deadexport keeps code that only tests reach from accumulating: every
// exported package-level func, type, var or const, and every exported
// method, declared in a production file under internal/ or vector/
// must be referenced from some production file of the module — in
// another package or its own. A method that implements an interface
// method (String, Error, ServeHTTP, a module interface) is used through
// the interface and is never reported.
//
// The per-package pass exports "declares" facts for its own exported
// identifiers and "uses" facts for every module identifier its
// production files reference. The module pass reports the
// declarations no package uses.
var deadexportCheck = &Check{
	Name:   "deadexport",
	Doc:    "exported identifiers under internal/ and vector/ are referenced by some non-test file",
	Pkg:    runDeadexport,
	Module: deadexportModule,
}

func runDeadexport(m *Module, p *Package) PkgResult {
	var res PkgResult
	if strings.HasSuffix(p.Path, " [test]") {
		return res // external test packages hold only test files
	}
	rel := modRelPath(m, p)
	declaring := rel == "vector" || strings.HasPrefix(rel, "vector/") || strings.HasPrefix(rel, "internal/")
	used := make(map[string]bool)
	use := func(pos token.Pos, obj types.Object) {
		if key := deadexportKey(m, obj); key != "" && !used[key] {
			used[key] = true
			res.Facts = append(res.Facts, fact(m, pos, "uses", key))
		}
	}
	var ifaceLits []*types.Interface
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			// A method's receiver names its type without using it:
			// otherwise any type with methods would count as used.
			ast.Inspect(n.Type, visit)
			if n.Body != nil {
				ast.Inspect(n.Body, visit)
			}
			return false
		case *ast.Ident:
			if obj := p.Info.Uses[n]; obj != nil {
				use(n.Pos(), obj)
			}
		case *ast.InterfaceType:
			if it, ok := p.Info.Types[n].Type.(*types.Interface); ok {
				ifaceLits = append(ifaceLits, it)
			}
		}
		return true
	}
	for i, f := range p.Files {
		if p.Test[i] {
			continue
		}
		if declaring {
			for _, id := range exportedDecls(f) {
				if key := deadexportKey(m, p.Info.Defs[id]); key != "" {
					res.Facts = append(res.Facts, fact(m, id.Pos(), "declares", key))
				}
			}
		}
		ast.Inspect(f, visit)
	}
	for _, obj := range interfaceMethods(m, p, ifaceLits) {
		use(obj.Pos(), obj)
	}
	return res
}

// exportedDecls lists the name identifiers of a file's exported
// package-level funcs, methods, types, vars and consts.
func exportedDecls(f *ast.File) []*ast.Ident {
	var out []*ast.Ident
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() {
				out = append(out, d.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						out = append(out, s.Name)
					}
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							out = append(out, id)
						}
					}
				}
			}
		}
	}
	return out
}

// deadexportKey names a module package-level object or method as
// "pkg.Name" or "pkg.Type.Method", with the package path module-
// relative. It returns "" for anything else: locals, fields, objects
// outside the module.
func deadexportKey(m *Module, obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	if path != m.Path && !strings.HasPrefix(path, m.Path+"/") {
		return ""
	}
	path = strings.TrimPrefix(strings.TrimPrefix(path, m.Path), "/")
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			named := namedOf(recv.Type())
			if named == nil {
				return ""
			}
			return path + "." + named.Origin().Obj().Name() + "." + fn.Name()
		}
		obj = fn
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// interfaceMethods returns the concrete methods that implement a method
// of some interface p can see: the interfaces declared in p and in its
// transitive imports (stdlib included), the predeclared error, and the
// interface literals of p's production files. Concrete types are the
// named types declared in the module packages among the same set, so
// an implementation is found whichever side of the import edge the
// interface sits on, and from any package that sees both.
func interfaceMethods(m *Module, p *Package, lits []*types.Interface) []types.Object {
	ifaces := append([]*types.Interface(nil), lits...)
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	var named []*types.Named
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		inModule := tp.Path() == m.Path || strings.HasPrefix(tp.Path(), m.Path+"/")
		for _, name := range tp.Scope().Names() {
			tn, ok := tp.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || strings.HasSuffix(m.Fset.Position(tn.Pos()).Filename, "_test.go") {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok {
				if it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			} else if inModule {
				named = append(named, n)
			}
		}
		for _, dep := range tp.Imports() {
			visit(dep)
		}
	}
	visit(p.Types)

	var out []types.Object
	for _, n := range named {
		ms := types.NewMethodSet(types.NewPointer(n))
		if ms.Len() == 0 {
			continue
		}
		names := make(map[string]bool, ms.Len())
		for i := 0; i < ms.Len(); i++ {
			names[ms.At(i).Obj().Name()] = true
		}
		for _, it := range ifaces {
			if it.NumMethods() == 0 || !names[it.Method(0).Name()] {
				continue
			}
			if !types.Implements(n, it) && !types.Implements(types.NewPointer(n), it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				if sel := ms.Lookup(it.Method(i).Pkg(), it.Method(i).Name()); sel != nil {
					out = append(out, sel.Obj())
				}
			}
		}
	}
	return out
}

// deadexportModule reports every declaration no package uses.
func deadexportModule(m *Module, facts []Fact) []Finding {
	used := make(map[string]bool)
	for _, f := range facts {
		if f.Kind == "uses" {
			used[f.Key] = true
		}
	}
	var out []Finding
	for _, f := range facts {
		if f.Kind != "declares" || used[f.Key] {
			continue
		}
		out = append(out, Finding{
			File:  f.File,
			Line:  f.Line,
			Col:   f.Col,
			Check: "deadexport",
			Msg: fmt.Sprintf("exported %s is referenced only from _test.go files, or not at all; delete it with its tests, or keep it with //lakelint:ignore deadexport -- <reason>",
				f.Key),
		})
	}
	return out
}
