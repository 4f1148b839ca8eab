// Package analysis is a from-scratch, stdlib-only static-analysis framework
// for this repository. It loads and type-checks the module's packages with
// go/parser and go/types, runs a registry of analyzers over them, and
// reports diagnostics with file:line positions, a rule id, and a message.
//
// The analyzers enforce invariants the Go type system cannot express but
// the storage stack depends on, each kept because a seeded defect of its
// class got past every test: a ctx in scope is threaded down to the work
// it bounds, an error from the durable substrate is never dropped, ordinal
// and offset arithmetic never truncates through a narrowing conversion,
// and a forwarded error keeps its chain. Each is a syntactic, per-call
// check over the typed AST; see the per-analyzer files for details. Pin
// and snapshot balance is not a lint rule: the block store reads every
// page through one scoped view (blockstore's viewStream), and the test
// constructors fail any test that ends with a frame pinned or a snapshot
// live.
//
// A finding can be suppressed by placing a comment of the form
//
//	//avqlint:ignore <rule> <one-line justification>
//
// on the flagged line or the line immediately above it.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Diagnostic is one finding: a position, the rule that fired, and a
// human-readable message.
type Diagnostic struct {
	Pos     token.Position
	Rule    string
	Message string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Rule, d.Message)
}

// Analyzer is one rule. Run inspects a type-checked package through the
// Pass and reports findings via Pass.Report.
type Analyzer struct {
	// Name is the rule id used in diagnostics and suppression comments.
	Name string
	// Doc is a one-line description of what the rule enforces.
	Doc string
	// Run executes the rule over one package.
	Run func(*Pass)
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

	diags *[]Diagnostic
}

// Report records a finding at pos unless a suppression comment covers it.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.Pkg.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:     position,
		Rule:    p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the static type of e, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Pkg.Info.TypeOf(e) }

// Registry returns the default analyzer set, sorted by name. New analyzers
// register themselves here.
func Registry() []*Analyzer {
	all := []*Analyzer{
		AnalyzerCtxFlow,
		AnalyzerDroppedErr,
		AnalyzerOrdWidth,
		AnalyzerErrWrap,
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	return all
}

// Lookup returns the registered analyzer with the given name, or nil.
func Lookup(name string) *Analyzer {
	for _, a := range Registry() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Lint runs every registered analyzer over pkg and returns their surviving
// findings followed by every suppression directive that names no rule.
func Lint(pkg *Package) []Diagnostic {
	return append(RunAnalyzers(pkg, Registry()), ValidateIgnores(pkg)...)
}

// RunAnalyzers applies the given analyzers to the package and returns the
// surviving (unsuppressed) diagnostics sorted by position.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &diags}
		a.Run(pass)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Rule < b.Rule
	})
	return diags
}

// forEachFunc visits every function and method declaration with a body in
// the package.
func forEachFunc(pkg *Package, fn func(file *ast.File, decl *ast.FuncDecl)) {
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				fn(file, fd)
			}
		}
	}
}
