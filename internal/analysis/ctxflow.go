package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerCtxFlow proves that cancellation actually reaches the block I/O
// it is supposed to bound. The engine's query path threads a
// context.Context from the public *Context APIs down to the per-block
// ctx.Err() checks in the executor and block store; a single function
// that conjures a fresh context.Background() — or calls a non-Context
// variant while holding a ctx — silently severs that chain, and the
// caller's cancel becomes a no-op for everything underneath.
//
// Four checks:
//
//  1. context.Background()/TODO() inside a function that already has a
//     ctx parameter: the fresh context shadows the caller's.
//  2. context.Background()/TODO() in any other function outside package
//     main: only the program's entry points mint a root context. A
//     "Deprecated:" doc comment exempts nothing, so a non-Context
//     compatibility wrapper cannot be reintroduced by labelling it.
//  3. A call to f(...) or recv.M(...) from a ctx-holding function when a
//     fContext/MContext sibling exists: the ctx was available and dropped.
//  4. A loop in a ctx-holding function that reads blocks (a call whose
//     name contains "ReadBlock") without ever consulting ctx: each
//     iteration is an I/O the caller can no longer cancel.
var AnalyzerCtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "ctx must thread through to block I/O: no fresh Background, no dropped Context variants",
	Run:  runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	forEachFunc(pass.Pkg, func(file *ast.File, fd *ast.FuncDecl) {
		analyzeCtxFunc(pass, file, fd)
	})
}

func analyzeCtxFunc(pass *Pass, file *ast.File, fd *ast.FuncDecl) {
	ctxObj, ctxName := ctxParam(pass, fd)
	inMain := file.Name.Name == "main" || fd.Name.Name == "main"

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := freshContextCall(pass, call); ok {
			switch {
			case ctxObj != nil:
				pass.Report(call.Pos(),
					"context.%s() inside a function that already has a ctx parameter; thread %q instead",
					name, ctxName)
			case !inMain:
				pass.Report(call.Pos(),
					"context.%s() severs cancellation from every caller; accept a ctx parameter",
					name)
			}
			return true
		}
		if ctxObj != nil {
			if name, ok := droppedCtxVariant(pass, call); ok {
				pass.Report(call.Pos(),
					"call to %s drops the in-scope ctx; use %sContext instead", name, name)
			}
		}
		return true
	})

	if ctxObj != nil {
		reportCtxBlindLoops(pass, fd.Body, ctxObj, ctxName)
	}
}

// ctxParam returns the object and name of fd's context.Context parameter,
// if it has one.
func ctxParam(pass *Pass, fd *ast.FuncDecl) (types.Object, string) {
	if fd.Type.Params == nil {
		return nil, ""
	}
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			obj := pass.Pkg.Info.ObjectOf(name)
			if obj != nil && isContextType(obj.Type()) {
				return obj, name.Name
			}
		}
	}
	return nil, ""
}

// freshContextCall matches context.Background() and context.TODO().
func freshContextCall(pass *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if name != "Background" && name != "TODO" {
		return "", false
	}
	obj := pass.Pkg.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
		return "", false
	}
	return name, true
}

// droppedCtxVariant reports whether call invokes a function or method that
// ignores ctx while a sibling <name>Context (whose first parameter is a
// context.Context) exists on the same receiver or in the same package.
func droppedCtxVariant(pass *Pass, call *ast.CallExpr) (string, bool) {
	sig := calleeSignature(pass.Pkg, call)
	if sig == nil {
		return "", false
	}
	if sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type()) {
		return "", false // already the ctx-aware form
	}
	if recv, name, ok := methodCall(pass.Pkg, call); ok {
		t := pass.Pkg.Info.TypeOf(recv)
		if t == nil {
			return "", false
		}
		sib, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg.Types, name+"Context")
		if fn, ok := sib.(*types.Func); ok && firstParamIsCtx(fn) {
			return name, true
		}
		return "", false
	}
	// Package-level function: look for the sibling in the callee's package.
	var obj types.Object
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = pass.Pkg.Info.Uses[fun]
	case *ast.SelectorExpr:
		obj = pass.Pkg.Info.Uses[fun.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return "", false
	}
	if sib, ok := fn.Pkg().Scope().Lookup(fn.Name() + "Context").(*types.Func); ok && firstParamIsCtx(sib) {
		return fn.Name(), true
	}
	return "", false
}

// firstParamIsCtx reports whether fn's first parameter is context.Context.
func firstParamIsCtx(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Params().Len() > 0 && isContextType(sig.Params().At(0).Type())
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// reportCtxBlindLoops flags the outermost for/range statements that read
// blocks without consulting ctx. Nested loops inside a flagged loop are
// not re-flagged: fixing the outer loop fixes the path.
func reportCtxBlindLoops(pass *Pass, body *ast.BlockStmt, ctxObj types.Object, ctxName string) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			if !usesObj(pass, n, ctxObj) && callsReadBlock(pass, n) {
				pass.Report(n.Pos(),
					"loop reads blocks but never consults %q; check %s.Err() between iterations or use a Context-aware read",
					ctxName, ctxName)
				return false
			}
		}
		return true
	}
	ast.Inspect(body, visit)
}

// usesObj reports whether any identifier under n resolves to obj.
func usesObj(pass *Pass, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if found {
			return false
		}
		if id, ok := nd.(*ast.Ident); ok && pass.Pkg.Info.Uses[id] == obj {
			found = true
			return false
		}
		return true
	})
	return found
}

// callsReadBlock reports whether n contains a call whose callee name
// contains "ReadBlock" (the block store's per-block I/O granularity).
func callsReadBlock(pass *Pass, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(nd ast.Node) bool {
		if found {
			return false
		}
		call, ok := nd.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := unparen(call.Fun).(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		}
		if strings.Contains(name, "ReadBlock") {
			found = true
			return false
		}
		return true
	})
	return found
}
