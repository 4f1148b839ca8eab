package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestBenchModuleVets type-checks the end-to-end benchmark harness against
// the tree it sits in. bench/ is its own module (`replace repro => ../`),
// so `go build ./... && go test ./...` at the root never compiles it; this
// test is how tier-1 notices that a refactor of internal/core, exec,
// blockstore or server stopped the yardstick building.
func TestBenchModuleVets(t *testing.T) {
	if _, err := os.Stat("bench/go.mod"); err != nil {
		t.Skip("no bench/ module in this checkout")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "bench"
	cmd.Env = append(os.Environ(), "GOTOOLCHAIN=local", "GOPROXY=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in bench/: %v\n%s", err, out)
	}
}
