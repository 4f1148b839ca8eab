package analysis

import (
	"fmt"
	"go/ast"
)

// AnalyzerSnapFlow proves the manifest-snapshot refcount protocol on every
// control-flow path: a blockstore.Snapshot acquired by Store.Snapshot()
// must reach Snapshot.Release(), or escape to a new owner, on every path.
// An unreleased snapshot is worse than a leak of its own memory — it pins
// the refcount that gates the parked-page deferred frees, so pages freed
// by concurrent mutations are never returned to the pager. The analysis
// is the same CFG + resource-lattice fixpoint as pinflow: a Release in
// one branch does not excuse a leak in another, defers release every path
// past their registration, and snapshots handed to exec.NewIteratorContext
// or stored into a struct transfer the obligation to the new owner.
var AnalyzerSnapFlow = &Analyzer{
	Name: "snapflow",
	Doc:  "every Store.Snapshot must be Released or escape on every path",
	Run:  runSnapFlow,
}

var snapFlowSpec = &resourceSpec{
	isAcquire: func(p *Pass, call *ast.CallExpr) (string, bool) {
		recv, name, ok := methodCall(p.Pkg, call)
		if !ok || name != "Snapshot" || !namedFrom(p.Pkg.Info.TypeOf(recv), blockstorePkg, "Store") {
			return "", false
		}
		return name, true
	},
	isRelease: func(p *Pass, call *ast.CallExpr) (ast.Expr, bool) {
		recv, name, ok := methodCall(p.Pkg, call)
		if !ok || name != "Release" || !namedFrom(p.Pkg.Info.TypeOf(recv), blockstorePkg, "Snapshot") {
			return nil, false
		}
		return recv, true
	},
	discardMsg: func(method string) string {
		return fmt.Sprintf("snapshot from Store.%s is discarded; its manifest refcount can never be released", method)
	},
	leakAllMsg: func(varName, method string) string {
		return fmt.Sprintf("snapshot %q from Store.%s is never released in this function", varName, method)
	},
	leakSomeMsg: func(varName, method string) string {
		return fmt.Sprintf("snapshot %q from Store.%s is released on some paths but leaks on others", varName, method)
	},
}

// blockstorePkg suffix-matches the block-store package that defines Store
// and Snapshot.
const blockstorePkg = "internal/blockstore"

func runSnapFlow(pass *Pass) {
	runResourceFlow(pass, snapFlowSpec)
}
