package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerDroppedErr flags a dropped error from the durable substrate: a
// call to a method of storage.File, storage.FS, backend.Store or wal.Log
// whose error result is discarded, by a bare call statement or by
// assigning it to _. These are the calls whose lost error can lose data: a
// Sync, WriteAt or Rename that did not happen, or a ReadAt that failed and
// is taken for a short file. A cleanup on a path that already returns an
// error folds its own error in with errors.Join rather than dropping it.
//
// Deferred and go calls, including calls inside deferred closures, are
// excluded: there is no propagation path at that point. Test files are
// never analyzed (the loader skips them).
var AnalyzerDroppedErr = &Analyzer{
	Name: "droppederr",
	Doc:  "an error from storage.File, storage.FS, backend.Store or wal.Log must be handled, not discarded",
	Run:  runDroppedErr,
}

func runDroppedErr(pass *Pass) {
	forEachFunc(pass.Pkg, func(_ *ast.File, fd *ast.FuncDecl) {
		walkWithStack(fd.Body, func(n ast.Node, stack []ast.Node) {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := unparen(n.X).(*ast.CallExpr)
				if ok && !inDefer(stack) && substrateErrCall(pass.Pkg, call) != nil {
					pass.Report(n.Pos(), "dropped error: result of %s is discarded", types.ExprString(call.Fun))
				}
			case *ast.AssignStmt:
				checkAssignDrops(pass, n)
			}
		})
	})
}

// inDefer reports whether the ancestor chain passes through a defer or go
// statement; a call in a deferred closure is excluded exactly like a
// directly deferred call.
func inDefer(stack []ast.Node) bool {
	for _, n := range stack {
		switch n.(type) {
		case *ast.DeferStmt, *ast.GoStmt:
			return true
		}
	}
	return false
}

// checkAssignDrops reports substrate errors assigned to the blank
// identifier, in the tuple form (n, _ := f.ReadAt(...)) and the parallel
// form (_ = f.Sync()).
func checkAssignDrops(pass *Pass, as *ast.AssignStmt) {
	if len(as.Rhs) == 1 && len(as.Lhs) > 1 {
		call, ok := unparen(as.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		if sig := substrateErrCall(pass.Pkg, call); sig != nil && sig.Results().Len() == len(as.Lhs) && isBlank(as.Lhs[len(as.Lhs)-1]) {
			pass.Report(as.Pos(), "dropped error: final result of %s assigned to _", types.ExprString(call.Fun))
		}
		return
	}
	if len(as.Rhs) != len(as.Lhs) {
		return
	}
	for i, rhs := range as.Rhs {
		call, ok := unparen(rhs).(*ast.CallExpr)
		if !ok || !isBlank(as.Lhs[i]) {
			continue
		}
		if sig := substrateErrCall(pass.Pkg, call); sig != nil && sig.Results().Len() == 1 {
			pass.Report(as.Lhs[i].Pos(), "dropped error: result of %s assigned to _", types.ExprString(call.Fun))
		}
	}
}

// substrateErrCall returns the callee signature when call is a method of
// storage.File, storage.FS, backend.Store or wal.Log whose final result is
// an error, and nil otherwise.
func substrateErrCall(pkg *Package, call *ast.CallExpr) *types.Signature {
	recv, _, ok := methodCall(pkg, call)
	if !ok {
		return nil
	}
	t := pkg.Info.TypeOf(recv)
	if !namedFrom(t, storagePkg, "File") && !namedFrom(t, storagePkg, "FS") &&
		!namedFrom(t, backendPkg, "Store") && !namedFrom(t, walPkg, "Log") {
		return nil
	}
	sig := calleeSignature(pkg, call)
	if sig == nil || sig.Results().Len() == 0 || !isErrorType(sig.Results().At(sig.Results().Len()-1).Type()) {
		return nil
	}
	return sig
}

// isBlank reports whether e is the blank identifier.
func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}

// The substrate packages, suffix-matched like the other package constants.
const (
	storagePkg = "internal/storage"
	backendPkg = "internal/backend"
	walPkg     = "internal/wal"
)
