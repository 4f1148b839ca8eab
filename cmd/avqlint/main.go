// Command avqlint runs the repository's static-analysis suite
// (internal/analysis) over the module and exits non-zero on findings.
//
// Usage:
//
//	avqlint [dir | dir/... ...]
//
// With no arguments (or "./...") it analyzes every package under the
// module root. A plain directory argument analyzes that one package; a
// trailing /... analyzes the subtree. Every rule runs, and each finding
// prints as
//
//	file:line:col: [rule] message
//
// with the path relative to the module root. A finding is suppressed in
// source with a trailing or preceding comment of the form
// //avqlint:ignore <rule> <justification>; a directive naming a rule that
// does not exist is itself a finding (rule "ignore"), so the suppressions
// of a deleted or renamed rule cannot linger.
//
// Exit status: 0 clean, 1 findings, 2 a flag or a load error.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(targets []string, stdout, stderr io.Writer) int {
	for _, t := range targets {
		if strings.HasPrefix(t, "-") {
			fmt.Fprintf(stderr, "avqlint: takes package patterns only, not %q\n", t)
			return 2
		}
	}
	if len(targets) == 0 {
		targets = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "avqlint: %v\n", err)
		return 2
	}
	loader, err := analysis.NewLoader(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "avqlint: %v\n", err)
		return 2
	}

	var pkgs []*analysis.Package
	for _, target := range targets {
		if dir, ok := strings.CutSuffix(target, "/..."); ok {
			if dir == "." || dir == "" {
				dir = loader.ModuleRoot
			}
			sub, err := loader.LoadAll(dir)
			if err != nil {
				fmt.Fprintf(stderr, "avqlint: %v\n", err)
				return 2
			}
			pkgs = append(pkgs, sub...)
			continue
		}
		pkg, err := loader.LoadDir(target)
		if err != nil {
			fmt.Fprintf(stderr, "avqlint: %v\n", err)
			return 2
		}
		pkgs = append(pkgs, pkg)
	}

	findings := 0
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		if seen[pkg.Dir] {
			continue
		}
		seen[pkg.Dir] = true
		for _, d := range analysis.Lint(pkg) {
			if rel, err := filepath.Rel(loader.ModuleRoot, d.Pos.Filename); err == nil {
				d.Pos.Filename = filepath.ToSlash(rel)
			}
			fmt.Fprintln(stdout, d)
			findings++
		}
	}
	if findings > 0 {
		fmt.Fprintf(stderr, "avqlint: %d finding(s)\n", findings)
		return 1
	}
	return 0
}
