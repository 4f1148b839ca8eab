package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// deref strips one level of pointer from t.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// namedFrom reports whether t (possibly behind a pointer) is the named type
// with the given name whose defining package path is pkgPath or ends with
// "/"+pkgPath. Matching by suffix keeps the analyzers working if the module
// is ever renamed.
func namedFrom(t types.Type, pkgPath, name string) bool {
	n, ok := deref(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == pkgPath || strings.HasSuffix(p, "/"+pkgPath)
}

// methodCall decomposes a call of the form recv.Name(...). It returns the
// receiver expression and method name, or ok=false for plain function
// calls, conversions, and builtins.
func methodCall(pkg *Package, call *ast.CallExpr) (recv ast.Expr, name string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selection, isMethod := pkg.Info.Selections[sel]
	if !isMethod || selection.Kind() != types.MethodVal {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// calleeSignature returns the signature of the function being called, or
// nil for conversions and builtins.
func calleeSignature(pkg *Package, call *ast.CallExpr) *types.Signature {
	if tv, ok := pkg.Info.Types[call.Fun]; !ok || tv.IsType() {
		return nil // conversion
	}
	sig, _ := deref(pkg.Info.TypeOf(call.Fun)).(*types.Signature)
	return sig
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Pkg() == nil && n.Obj().Name() == "error"
}

// unparen strips any number of surrounding parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// walkWithStack traverses n, calling fn with each node and the stack of its
// ancestors (nearest last, not including the node itself).
func walkWithStack(n ast.Node, fn func(n ast.Node, stack []ast.Node)) {
	var stack []ast.Node
	ast.Inspect(n, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		fn(n, stack)
		stack = append(stack, n)
		return true
	})
}
