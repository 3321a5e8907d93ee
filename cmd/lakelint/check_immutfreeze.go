package main

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// immutfreeze enforces the frozen-snapshot contract the serving layer
// is built on: a type marked //lakelint:immutable (serve.Snapshot,
// serve.Generation) is constructed once and then shared across goroutines without further synchronization, so any
// field store, increment, whole-value overwrite, or field address-take
// outside the type's own constructors is a data race waiting for a
// query to hit it. A constructor is a function in the type's own
// package that returns the type (or a pointer to it); composite
// literals are always allowed — building a value is not mutating one.
// Test files are analyzed too: a test that scribbles on a frozen
// snapshot invalidates whatever it then asserts.
var immutfreezeCheck = &Check{
	Name: "immutfreeze",
	Doc:  "types marked //lakelint:immutable are written only inside their constructors",
	Pkg:  runImmutfreeze,
}

func runImmutfreeze(m *Module, p *Package) PkgResult {
	var out []Finding
	eachFuncBodyAll(p, func(_ string, _ bool, fd *ast.FuncDecl, body ast.Node) {
		where := "package-level declaration"
		if fd != nil {
			where = funcKey(fd)
		}
		ast.Inspect(body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				// Closures are walked too (fall through), including ones
				// inside constructors: a goroutine launched from a
				// constructor escapes the single-threaded construction
				// window, so it gets no constructor privilege. Keeping the
				// walk flat implements exactly that.
				return true
			}
			switch st := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range st.Lhs {
					immutfreezeTarget(m, p, fd, lhs, "assigned", &out)
				}
			case *ast.IncDecStmt:
				immutfreezeTarget(m, p, fd, st.X, "modified", &out)
			case *ast.UnaryExpr:
				if st.Op == token.AND {
					if key, field, ok := immutfreezeField(m, p, st.X); ok && !immutfreezeConstructor(m, p, fd, key) {
						out = append(out, finding(m, st.Pos(), "immutfreeze",
							"address of %s.%s taken in %s; an aliased field of an immutable type can be mutated behind every reader's back", key, field, where))
					}
				}
			}
			return true
		})
	})
	return PkgResult{Findings: out}
}

// immutfreezeTarget books a finding when lhs writes into an immutable
// type outside a constructor: a direct field store (s.f = v, possibly
// through indexing or dereferences) or a whole-value overwrite
// (*p = v).
func immutfreezeTarget(m *Module, p *Package, fd *ast.FuncDecl, lhs ast.Expr, verb string, out *[]Finding) {
	where := "package-level declaration"
	if fd != nil {
		where = funcKey(fd)
	}
	if star, ok := ast.Unparen(lhs).(*ast.StarExpr); ok {
		// *p = v overwrites every field at once.
		if tv, ok := p.Info.Types[star]; ok {
			if named := namedOf(tv.Type); named != nil {
				if key := typeKey(m, named); key != "" && m.Directives.immutable[key] && !immutfreezeConstructor(m, p, fd, key) {
					*out = append(*out, finding(m, lhs.Pos(), "immutfreeze",
						"%s value wholesale-%s in %s; %s is frozen after construction — build a new value instead", key, verb, where, key))
					return
				}
			}
		}
	}
	if key, field, ok := immutfreezeField(m, p, lhs); ok && !immutfreezeConstructor(m, p, fd, key) {
		*out = append(*out, finding(m, lhs.Pos(), "immutfreeze",
			"%s.%s %s in %s; %s is frozen after construction — mutations are allowed only in its constructors", key, field, verb, where, key))
	}
}

// immutfreezeField resolves expr to a field selection on an immutable
// type, peeling parens, indexing, and dereferences (s.m[k] = v and
// (*s).f = v both mutate s's field). Returns the type key and field
// name.
func immutfreezeField(m *Module, p *Package, expr ast.Expr) (string, string, bool) {
	for {
		switch e := ast.Unparen(expr).(type) {
		case *ast.IndexExpr:
			expr = e.X
		case *ast.StarExpr:
			expr = e.X
		case *ast.SelectorExpr:
			s, ok := p.Info.Selections[e]
			if !ok || s.Kind() != types.FieldVal {
				return "", "", false
			}
			named := namedOf(s.Recv())
			if named == nil {
				return "", "", false
			}
			key := typeKey(m, named)
			if key == "" || !m.Directives.immutable[key] {
				return "", "", false
			}
			return key, e.Sel.Name, true
		default:
			return "", "", false
		}
	}
}

// immutfreezeConstructor reports whether fd is a constructor of the
// immutable type named by key: declared in the type's own package and
// returning the type or a pointer to it.
func immutfreezeConstructor(m *Module, p *Package, fd *ast.FuncDecl, key string) bool {
	if fd == nil || fd.Type.Results == nil {
		return false
	}
	// Same package: the key's path prefix must match this package.
	dot := strings.LastIndex(key, ".")
	if dot < 0 || modRelPath(m, p) != key[:dot] {
		return false
	}
	for _, field := range fd.Type.Results.List {
		tv, ok := p.Info.Types[field.Type]
		if !ok {
			continue
		}
		if named := namedOf(tv.Type); named != nil && typeKey(m, named) == key {
			return true
		}
	}
	return false
}
