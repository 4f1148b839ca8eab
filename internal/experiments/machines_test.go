package experiments

import (
	"testing"
	"time"
)

func TestPaperMachines(t *testing.T) {
	ms := PaperMachines()
	if len(ms) != 3 {
		t.Fatalf("machines = %d, want 3", len(ms))
	}
	names := []string{"HP 9000/735", "Sun 4/50", "DEC 5000/120"}
	for i, m := range ms {
		if m.Name != names[i] {
			t.Errorf("machine %d = %q, want %q", i, m.Name, names[i])
		}
		if m.BlockCode <= 0 || m.BlockDecode <= 0 || m.Extract <= 0 {
			t.Errorf("%s has non-positive timings", m.Name)
		}
		// The paper's t3 << t2 relationship holds on every machine.
		if m.Extract >= m.BlockDecode {
			t.Errorf("%s: extract %v >= decode %v", m.Name, m.Extract, m.BlockDecode)
		}
	}
	// Published ordering: HP fastest, DEC slowest.
	if !(ms[0].BlockDecode < ms[1].BlockDecode && ms[1].BlockDecode < ms[2].BlockDecode) {
		t.Fatal("machines not ordered fastest to slowest")
	}
	// Spot-check the published values (Figure 5.9 rows 1-2, 4).
	if ms[0].BlockCode != 13910*time.Microsecond || ms[0].BlockDecode != 13850*time.Microsecond {
		t.Fatalf("HP rows = %v/%v", ms[0].BlockCode, ms[0].BlockDecode)
	}
}

func TestHost(t *testing.T) {
	m := hostMachine(time.Millisecond, 2*time.Millisecond, 3*time.Millisecond)
	if m.Name != "this host" || m.BlockCode != time.Millisecond ||
		m.BlockDecode != 2*time.Millisecond || m.Extract != 3*time.Millisecond {
		t.Fatalf("hostMachine = %+v", m)
	}
}
