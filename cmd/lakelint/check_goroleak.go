package main

import (
	"go/ast"
	"go/types"
)

// goroleak enforces the goroutine lifecycle discipline the server
// hardening work established: every `go` statement must have a join or
// cancel path — a reachable ctx.Done() select, WaitGroup pairing, or
// communication over a channel that outlives the goroutine (send,
// receive, range, or close on a channel declared outside the goroutine
// body). A goroutine with none of those is unobservable: it cannot be
// waited for on shutdown, cannot be cancelled, and leaks whatever it
// captured. The bounded-pool dispatch path (parallel.For, behind
// core.ParallelFor and the lake's topic kernel) passes by construction
// — its workers pair Done with Add.
//
// Named callees are resolved one level through the module's function
// index; a spawn whose body the check cannot see (function value,
// stdlib callee) is conservatively a finding, suppressible with a
// reasoned //lakelint:ignore. Test files are analyzed too: a leaked
// goroutine in a test outlives the test and corrupts its successors.
var goroleakCheck = &Check{
	Name: "goroleak",
	Doc:  "every go statement is joined or cancellable (ctx.Done, WaitGroup, outer channel)",
	Pkg:  runGoroleak,
}

func runGoroleak(m *Module, p *Package) PkgResult {
	var out []Finding
	eachFuncBodyAll(p, func(_ string, _ bool, _ *ast.FuncDecl, body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(g.Call.Fun).(type) {
			case *ast.FuncLit:
				if !goroleakSanctioned(m, p, fun.Body) {
					out = append(out, finding(m, g.Pos(), "goroleak",
						"goroutine has no join or cancel path (no ctx.Done select, WaitGroup pairing, or outer channel); it cannot be waited for or stopped"))
				}
			default:
				obj, _ := calleeObject(p, g.Call).(*types.Func)
				if obj == nil {
					out = append(out, finding(m, g.Pos(), "goroleak",
						"goroutine spawns through a function value the check cannot resolve; spawn a named function with a join/cancel path (or suppress with a reason)"))
					return true
				}
				fd := m.FuncDeclOf(obj)
				defPkg := m.FuncPkgOf(obj)
				if fd == nil || fd.Body == nil || defPkg == nil {
					out = append(out, finding(m, g.Pos(), "goroleak",
						"goroutine body %s is outside the module; wrap it in a closure with a join/cancel path (or suppress with a reason)", obj.Name()))
					return true
				}
				if !goroleakSanctioned(m, defPkg, fd.Body) {
					out = append(out, finding(m, g.Pos(), "goroleak",
						"goroutine %s has no join or cancel path (no ctx.Done select, WaitGroup pairing, or outer channel); it cannot be waited for or stopped", obj.Name()))
				}
			}
			return true
		})
	})
	return PkgResult{Findings: out}
}

// goroleakSanctioned reports whether a goroutine body has a join or
// cancel path: a ctx.Done() call, a WaitGroup.Done call (including
// deferred), or a send/receive/range/close on a channel declared
// outside the body (captured variables, parameters, and fields all
// outlive the goroutine, so traffic on them is observable).
func goroleakSanctioned(m *Module, p *Package, body *ast.BlockStmt) bool {
	ok := false
	ast.Inspect(body, func(n ast.Node) bool {
		if ok {
			return false
		}
		switch e := n.(type) {
		case *ast.CallExpr:
			if sel, isSel := ast.Unparen(e.Fun).(*ast.SelectorExpr); isSel {
				if fn, isFn := p.Info.Uses[sel.Sel].(*types.Func); isFn && fn.Name() == "Done" && fn.Pkg() != nil {
					switch fn.Pkg().Path() {
					case "context", "sync":
						ok = true
						return false
					}
				}
			}
			if id, isID := ast.Unparen(e.Fun).(*ast.Ident); isID && id.Name == "close" && len(e.Args) == 1 {
				if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin && goroleakOuterChan(p, body, e.Args[0]) {
					ok = true
					return false
				}
			}
		case *ast.SendStmt:
			if goroleakOuterChan(p, body, e.Chan) {
				ok = true
				return false
			}
		case *ast.UnaryExpr:
			if e.Op.String() == "<-" && goroleakOuterChan(p, body, e.X) {
				ok = true
				return false
			}
		case *ast.RangeStmt:
			if tv, has := p.Info.Types[e.X]; has {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan && goroleakOuterChan(p, body, e.X) {
					ok = true
					return false
				}
			}
		}
		return true
	})
	return ok
}

// goroleakOuterChan reports whether expr is a channel whose declaration
// lives outside the goroutine body — a captured local, a parameter, or
// a struct field. Traffic on a channel created inside the body proves
// nothing: no one outside can be on the other end.
func goroleakOuterChan(p *Package, body *ast.BlockStmt, expr ast.Expr) bool {
	if tv, has := p.Info.Types[expr]; !has || tv.Type == nil {
		return false
	} else if _, isChan := tv.Type.Underlying().(*types.Chan); !isChan {
		return false
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		obj := p.Info.Uses[e]
		if obj == nil {
			return false
		}
		return obj.Pos() < body.Pos() || obj.Pos() > body.End()
	case *ast.SelectorExpr:
		// A field selection: the struct (and its channel) outlive the body.
		if s, has := p.Info.Selections[e]; has && s.Kind() == types.FieldVal {
			return true
		}
	}
	return false
}
