package analysis

import (
	"fmt"
	"go/token"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// sharedLoader is the one Loader the tests share: the module packages and
// standard-library imports the fixtures reach are type-checked from source
// once per test binary, not once per fixture. The tests run sequentially,
// and nothing they do writes to a loaded package.
var sharedLoader = sync.OnceValues(func() (*Loader, error) { return NewLoader(".") })

// loadFixture type-checks one fixture package under testdata/src.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return pkg
}

// render flattens diagnostics to "file.go:line:col: message" with the
// directory stripped, the golden form used below.
func render(diags []Diagnostic) []string {
	var out []string
	for _, d := range diags {
		out = append(out, fmt.Sprintf("%s:%d:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Message))
	}
	return out
}

// TestAnalyzersGolden proves each analyzer fires on every planted
// violation, with the exact position and message, and stays silent on the
// correct and suppressed functions in the same fixture.
func TestAnalyzersGolden(t *testing.T) {
	tests := []struct {
		rule string
		want []string
	}{
		{
			rule: "ctxflow",
			want: []string{
				`ctxflow.go:24:23: context.Background() inside a function that already has a ctx parameter; thread "ctx" instead`,
				`ctxflow.go:32:29: context.Background() severs cancellation from every caller; accept a ctx parameter`,
				`ctxflow.go:38:23: context.Background() severs cancellation from every caller; accept a ctx parameter`,
				`ctxflow.go:44:9: call to Scan drops the in-scope ctx; use ScanContext instead`,
				`ctxflow.go:55:2: loop reads blocks but never consults "ctx"; check ctx.Err() between iterations or use a Context-aware read`,
			},
		},
		{
			rule: "droppederr",
			want: []string{
				`droppederr.go:25:2: dropped error: result of f.Sync is discarded`,
				`droppederr.go:35:2: dropped error: final result of f.ReadAt assigned to _`,
				`droppederr.go:41:2: dropped error: result of fs.Remove assigned to _`,
			},
		},
		{
			rule: "errwrap",
			want: []string{
				`errwrap.go:18:9: fmt.Errorf formats error err without %w; wrap it or annotate the deliberate flattening`,
				`errwrap.go:23:9: fmt.Errorf formats error err without %w; wrap it or annotate the deliberate flattening`,
				`errwrap.go:28:9: fmt.Errorf formats error err without %w; wrap it or annotate the deliberate flattening`,
			},
		},
		{
			rule: "ordwidth",
			want: []string{
				`ordwidth.go:9:15: conversion to uint32 narrows 64-bit arithmetic result "id * uint64(pageSize)" to 32 bits; compute in the narrow type or mask explicitly`,
				`ordwidth.go:14:9: conversion to byte narrows 64-bit arithmetic result "x * y" to 8 bits; compute in the narrow type or mask explicitly`,
				`ordwidth.go:19:9: conversion to uint16 narrows 64-bit arithmetic result "n << 4" to 16 bits; compute in the narrow type or mask explicitly`,
				`ordwidth.go:24:9: conversion to int8 narrows 64-bit arithmetic result "hi - lo" to 8 bits; compute in the narrow type or mask explicitly`,
				`ordwidth.go:69:9: conversion to uint32 narrows "x >> halfShift" to 32 bits but the shift leaves 48 significant bits; shift further or mask explicitly`,
				`ordwidth.go:74:9: conversion to uint16 narrows "x & digitMask" to 16 bits but the mask spans 17 bits; tighten the mask to the target width`,
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.rule, func(t *testing.T) {
			a := Lookup(tt.rule)
			if a == nil {
				t.Fatalf("rule %q not registered", tt.rule)
			}
			pkg := loadFixture(t, tt.rule)
			got := render(RunAnalyzers(pkg, []*Analyzer{a}))
			if len(got) != len(tt.want) {
				t.Fatalf("got %d diagnostics, want %d:\ngot:  %s\nwant: %s",
					len(got), len(tt.want), strings.Join(got, "\n      "), strings.Join(tt.want, "\n      "))
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("diagnostic %d:\ngot:  %s\nwant: %s", i, got[i], tt.want[i])
				}
			}
		})
	}
}

// TestSuppression checks the directive machinery directly: same line,
// preceding line, rule mismatch, and the "all" wildcard.
func TestSuppression(t *testing.T) {
	pkg := &Package{ignores: []ignoreDirective{
		{file: "a.go", line: 10, rule: "errwrap"},
		{file: "a.go", line: 20, rule: "all"},
	}}
	cases := []struct {
		file string
		line int
		rule string
		want bool
	}{
		{"a.go", 10, "errwrap", true},  // same line
		{"a.go", 11, "errwrap", true},  // line below the directive
		{"a.go", 12, "errwrap", false}, // too far
		{"a.go", 10, "droppederr", false},
		{"b.go", 10, "errwrap", false}, // other file
		{"a.go", 20, "ordwidth", true}, // wildcard
		{"a.go", 21, "lockbalance", true},
	}
	for _, c := range cases {
		got := pkg.suppressed(c.rule, token.Position{Filename: c.file, Line: c.line})
		if got != c.want {
			t.Errorf("suppressed(%s, %s:%d) = %v, want %v", c.rule, c.file, c.line, got, c.want)
		}
	}
}

// TestValidateIgnores checks that directives naming unknown rules are
// surfaced (a typo suppresses nothing, silently) while registered rules
// and the "all" wildcard pass.
func TestValidateIgnores(t *testing.T) {
	pkg := &Package{ignores: []ignoreDirective{
		{file: "a.go", line: 4, col: 2, rule: "ctxflow"},
		{file: "a.go", line: 9, col: 30, rule: "pinflow"}, // retired name
		{file: "b.go", line: 1, col: 1, rule: "all"},
		{file: "b.go", line: 7, col: 1, rule: "ctxflwo"}, // typo
	}}
	var rules []string
	for _, a := range Registry() {
		rules = append(rules, a.Name)
	}
	list := strings.Join(rules, ", ")
	got := render(ValidateIgnores(pkg))
	want := []string{
		`a.go:9:30: //avqlint:ignore names unknown rule "pinflow"; the rules are ` + list,
		`b.go:7:1: //avqlint:ignore names unknown rule "ctxflwo"; the rules are ` + list,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("got:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSuppressionForms proves both directive placements end to end on real
// fixtures: the droppederr fixture suppresses with a trailing same-line
// comment, the ctxflow fixture with a standalone comment on the line
// above. Both planted defects must stay silent under their rule.
func TestSuppressionForms(t *testing.T) {
	for rule, fn := range map[string]string{"droppederr": "suppressedClose", "ctxflow": "suppressed"} {
		pkg := loadFixture(t, rule)
		for _, d := range RunAnalyzers(pkg, []*Analyzer{Lookup(rule)}) {
			t.Logf("%s: %s", rule, d)
		}
		// The golden test already pins the exact surviving set; here we
		// additionally prove the suppressed function's directive parsed.
		found := false
		for _, ig := range pkg.ignores {
			if ig.rule == rule {
				found = true
			}
		}
		if !found {
			t.Errorf("%s fixture: no parsed //avqlint:ignore directive for %s in %s", rule, rule, fn)
		}
	}
}

// TestRegistry checks the full analyzer set is registered and named.
func TestRegistry(t *testing.T) {
	want := []string{"ctxflow", "droppederr", "errwrap", "ordwidth"}
	var got []string
	for _, a := range Registry() {
		got = append(got, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing doc or run", a.Name)
		}
	}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("registry = %v, want %v", got, want)
	}
	if Lookup("nosuchrule") != nil {
		t.Error("Lookup of unknown rule should be nil")
	}
}

// TestLoader checks module resolution, type-checking, and test-file
// exclusion.
func TestLoader(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "repro" {
		t.Errorf("module path = %q, want repro", l.ModulePath)
	}
	pkg, err := l.LoadDir(".")
	if err != nil {
		t.Fatalf("LoadDir(.): %v", err)
	}
	if pkg.Path != "repro/internal/analysis" {
		t.Errorf("path = %q", pkg.Path)
	}
	if pkg.Types == nil || pkg.Info == nil || len(pkg.Files) == 0 {
		t.Fatal("package not fully populated")
	}
	for _, f := range pkg.Files {
		name := l.Fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			t.Errorf("test file %s was loaded", name)
		}
	}
	// Loading twice returns the memoized package.
	again, err := l.LoadDir(".")
	if err != nil {
		t.Fatalf("second LoadDir: %v", err)
	}
	if again != pkg {
		t.Error("LoadDir did not memoize")
	}
	// A fixture importing module-internal packages resolves through the
	// loader's importer.
	fix, err := l.LoadDir(filepath.Join("testdata", "src", "droppederr"))
	if err != nil {
		t.Fatalf("fixture load: %v", err)
	}
	if !strings.Contains(fix.Path, "testdata") {
		t.Errorf("fixture path %q should be synthetic under testdata", fix.Path)
	}
}

// TestLoadAllSkipsNestedModules: a directory with its own go.mod is another
// module (the repo's bench/), which `./...` must not reach — the go tool
// does not either.
func TestLoadAllSkipsNestedModules(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.LoadAll(filepath.Join("testdata", "src", "nestedmod"))
	if err != nil {
		t.Fatalf("LoadAll: %v", err)
	}
	if len(pkgs) != 1 || !strings.HasSuffix(pkgs[0].Path, "nestedmod") {
		t.Fatalf("LoadAll loaded %d packages (%v), want only the outer one", len(pkgs), pkgs)
	}
}

// TestLoaderHonoursBuildConstraints: a //go:build race file and its !race
// twin declare the same name; the loader type-checks the default build's
// files only, so the pair loads as one declaration.
func TestLoaderHonoursBuildConstraints(t *testing.T) {
	pkg := loadFixture(t, "buildtags")
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want the !race one only", len(pkg.Files))
	}
	if name := filepath.Base(pkg.Fset.Position(pkg.Files[0].Pos()).Filename); name != "off.go" {
		t.Fatalf("loaded %s, want off.go", name)
	}
}
