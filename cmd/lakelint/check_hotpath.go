package main

import (
	"go/ast"
	"go/token"
	"go/types"
)

// hotpath is the compile-time complement to the AllocsPerRun pins: a
// function marked //lakelint:hotpath (the three *Into navigation
// kernels, the evaluator's transition-memo helpers and the serve cache
// hit path) must stay free of the constructs that allocate or box on
// every call — map/slice composite literals, make of a map/slice/chan,
// closure literals, append (growth is the caller's job, via
// preallocated scratch), fmt calls, and interface boxing of concrete
// values (assignments, call arguments, returns). The kernels
// that the paper's navigation loop spends its time in must not regress
// from zero allocations by way of an innocent-looking edit.
//
// The annotation itself is load-bearing: the kernel set and the cache
// hit path are required to carry it (hotpathRequiredCore/Serve), so
// deleting an annotation fails the lint gate instead of silently
// dropping the protection.
var hotpathCheck = &Check{
	Name: "hotpath",
	Doc:  "//lakelint:hotpath bodies stay literal-, append-, fmt-, closure-, and boxing-free",
	Pkg:  runHotpath,
}

// hotpathRequiredCore are the internal/core functions that must carry
// the annotation: the zero-alloc navigation kernels, the evaluator's
// transition-memo read/fill helpers and its per-worker reach sweep.
var hotpathRequiredCore = map[string]bool{
	"Org.transitionsInto":    true,
	"Org.reachProbsInto":     true,
	"Org.leafProbInto":       true,
	"Evaluator.transRow":     true,
	"Evaluator.sweep":        true,
	"Evaluator.leafProbMemo": true,
}

// hotpathRequiredServe are the internal/serve functions that must carry
// the annotation (the cache hit path).
var hotpathRequiredServe = map[string]bool{
	"Cache.get": true,
}

func runHotpath(m *Module, p *Package) PkgResult {
	var out []Finding
	eachFuncBodyAll(p, func(_ string, _ bool, fd *ast.FuncDecl, _ ast.Node) {
		if fd == nil {
			return
		}
		key := funcKey(fd)
		required := (isCorePackage(p) && hotpathRequiredCore[key]) ||
			(isServePackage(p) && hotpathRequiredServe[key])
		if required && !m.Directives.Hotpath(fd) {
			out = append(out, finding(m, fd.Pos(), "hotpath",
				"%s is a pinned zero-alloc hot path and must carry //lakelint:hotpath; removing the annotation drops its compile-time protection", key))
			return
		}
		if !m.Directives.Hotpath(fd) {
			return
		}
		out = append(out, hotpathBody(m, p, fd)...)
	})
	return PkgResult{Findings: out}
}

// hotpathBody scans one annotated function body.
func hotpathBody(m *Module, p *Package, fd *ast.FuncDecl) []Finding {
	var out []Finding
	key := funcKey(fd)
	var retSig *types.Signature
	if obj, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
		retSig = obj.Type().(*types.Signature)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			out = append(out, finding(m, e.Pos(), "hotpath",
				"closure literal in hotpath %s; a closure allocates its environment on every call — hoist it or pass explicit parameters", key))
			return false
		case *ast.CompositeLit:
			tv, ok := p.Info.Types[e]
			if !ok {
				return true
			}
			switch tv.Type.Underlying().(type) {
			case *types.Slice:
				out = append(out, finding(m, e.Pos(), "hotpath",
					"slice literal in hotpath %s allocates on every call; use caller-owned scratch", key))
			case *types.Map:
				out = append(out, finding(m, e.Pos(), "hotpath",
					"map literal in hotpath %s allocates on every call; use caller-owned scratch", key))
			}
		case *ast.CallExpr:
			out = append(out, hotpathCall(m, p, key, e)...)
		case *ast.AssignStmt:
			if e.Tok != token.ASSIGN || len(e.Lhs) != len(e.Rhs) {
				return true
			}
			for i, lhs := range e.Lhs {
				ltv, ok := p.Info.Types[lhs]
				if !ok {
					continue
				}
				if hotpathBoxes(p, ltv.Type, e.Rhs[i]) {
					out = append(out, finding(m, e.Rhs[i].Pos(), "hotpath",
						"assignment boxes a concrete value into an interface in hotpath %s; boxing allocates — keep the value concrete", key))
				}
			}
		case *ast.ValueSpec:
			if e.Type == nil {
				return true
			}
			tv, ok := p.Info.Types[e.Type]
			if !ok {
				return true
			}
			for _, v := range e.Values {
				if hotpathBoxes(p, tv.Type, v) {
					out = append(out, finding(m, v.Pos(), "hotpath",
						"declaration boxes a concrete value into an interface in hotpath %s; boxing allocates — keep the value concrete", key))
				}
			}
		case *ast.ReturnStmt:
			if retSig == nil || len(e.Results) != retSig.Results().Len() {
				return true
			}
			for i, r := range e.Results {
				if hotpathBoxes(p, retSig.Results().At(i).Type(), r) {
					out = append(out, finding(m, r.Pos(), "hotpath",
						"return boxes a concrete value into an interface in hotpath %s; boxing allocates — keep the result concrete", key))
				}
			}
		}
		return true
	})
	return out
}

// hotpathCall flags append, allocating makes, fmt calls, and boxing
// call arguments.
func hotpathCall(m *Module, p *Package, key string, call *ast.CallExpr) []Finding {
	var out []Finding
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, builtin := p.Info.Uses[id].(*types.Builtin); builtin {
			switch id.Name {
			case "append":
				out = append(out, finding(m, call.Pos(), "hotpath",
					"append in hotpath %s can grow (allocate) on any call; size caller-owned scratch up front", key))
			case "make":
				tv, ok := p.Info.Types[call]
				if !ok {
					return out
				}
				switch tv.Type.Underlying().(type) {
				case *types.Slice, *types.Map, *types.Chan:
					out = append(out, finding(m, call.Pos(), "hotpath",
						"make in hotpath %s allocates on every call; allocate once outside the hot path", key))
				}
			}
			return out
		}
	}
	if obj := calleeObject(p, call); obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
		out = append(out, finding(m, call.Pos(), "hotpath",
			"fmt.%s in hotpath %s formats through reflection and boxes every operand; hot paths must not call fmt", obj.Name(), key))
		return out
	}
	tv, ok := p.Info.Types[call.Fun]
	if !ok || tv.IsType() { // conversions are not calls
		return out
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return out
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // the slice is passed through, not boxed per element
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if hotpathBoxes(p, pt, arg) {
			out = append(out, finding(m, arg.Pos(), "hotpath",
				"argument boxes a concrete value into an interface parameter in hotpath %s; boxing allocates — take a concrete parameter or hoist the call", key))
		}
	}
	return out
}

// hotpathBoxes reports whether assigning expr to a destination of type
// dst converts a concrete value to an interface. Untyped nil and
// interface-to-interface assignments do not box.
func hotpathBoxes(p *Package, dst types.Type, expr ast.Expr) bool {
	if dst == nil {
		return false
	}
	if _, iface := dst.Underlying().(*types.Interface); !iface {
		return false
	}
	tv, ok := p.Info.Types[expr]
	if !ok || tv.Type == nil || tv.IsNil() {
		return false
	}
	_, srcIface := tv.Type.Underlying().(*types.Interface)
	return !srcIface
}
