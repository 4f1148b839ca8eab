package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func runLint(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func fixture(name string) string {
	return filepath.Join("..", "..", "internal", "analysis", "testdata", "src", name)
}

func TestFindingsExitNonZero(t *testing.T) {
	code, out, stderr := runLint(t, fixture("droppederr"))
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, stderr)
	}
	if !strings.Contains(out, "[droppederr]") {
		t.Errorf("output missing droppederr finding:\n%s", out)
	}
	if !strings.Contains(out, "internal/analysis/testdata/src/droppederr/droppederr.go:") {
		t.Errorf("finding paths are not module-relative:\n%s", out)
	}
}

func TestCleanPackageExitsZero(t *testing.T) {
	code, out, stderr := runLint(t, filepath.Join("..", "..", "internal", "ordinal"))
	if code != 0 {
		t.Fatalf("exit %d; stdout: %s stderr: %s", code, out, stderr)
	}
}

// TestIgnoreNamingDeletedRuleFails: the fixture's code is clean, but one
// of its directives still suppresses a rule that no longer exists. That
// directive is a finding, so deleting a rule cannot leave its
// suppressions behind.
func TestIgnoreNamingDeletedRuleFails(t *testing.T) {
	code, out, stderr := runLint(t, fixture("staleignore"))
	if code != 1 {
		t.Fatalf("exit %d, want 1; stdout: %s stderr: %s", code, out, stderr)
	}
	if !strings.Contains(out, `[ignore] //avqlint:ignore names unknown rule "lockbalance"`) {
		t.Errorf("output missing the stale directive:\n%s", out)
	}
}

// TestFlagRejected: avqlint takes package patterns only.
func TestFlagRejected(t *testing.T) {
	code, _, stderr := runLint(t, "-json", "./...")
	if code != 2 || !strings.Contains(stderr, "package patterns only") {
		t.Fatalf("exit %d, stderr %q; want 2 and a usage error", code, stderr)
	}
}
