package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ignorePrefix introduces a suppression comment:
//
//	//avqlint:ignore <rule> <justification>
//
// The directive silences <rule> on the directive's own line and on the line
// immediately below it, so it works both as a trailing comment and as a
// standalone comment above the flagged statement. Rule "all" silences every
// rule.
const ignorePrefix = "//avqlint:ignore"

// ignoreDirective is one parsed suppression comment.
type ignoreDirective struct {
	file string
	line int
	col  int
	rule string
}

// collectIgnores scans every comment of every file for directives.
func collectIgnores(fset *token.FileSet, files []*ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, ignorePrefix)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				out = append(out, ignoreDirective{
					file: pos.Filename,
					line: pos.Line,
					col:  pos.Column,
					rule: fields[0],
				})
			}
		}
	}
	return out
}

// ValidateIgnores returns a diagnostic for every suppression directive in
// pkg naming no registered rule. A typo in a directive suppresses nothing,
// silently; after a rule is renamed or deleted its directives are exactly
// the lines whose findings came back or that no longer mean anything, so
// they surface as findings of the synthetic rule "ignore".
func ValidateIgnores(pkg *Package) []Diagnostic {
	var rules []string
	for _, a := range Registry() {
		rules = append(rules, a.Name)
	}
	var out []Diagnostic
	for _, d := range pkg.ignores {
		if d.rule == "all" || Lookup(d.rule) != nil {
			continue
		}
		out = append(out, Diagnostic{
			Pos:     token.Position{Filename: d.file, Line: d.line, Column: d.col},
			Rule:    "ignore",
			Message: fmt.Sprintf("//avqlint:ignore names unknown rule %q; the rules are %s", d.rule, strings.Join(rules, ", ")),
		})
	}
	return out
}

// suppressed reports whether a diagnostic of the given rule at pos is
// covered by an ignore directive.
func (p *Package) suppressed(rule string, pos token.Position) bool {
	for _, d := range p.ignores {
		if d.file != pos.Filename {
			continue
		}
		if d.rule != rule && d.rule != "all" {
			continue
		}
		if d.line == pos.Line || d.line == pos.Line-1 {
			return true
		}
	}
	return false
}
