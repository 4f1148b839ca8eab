// CPU cost model: the per-machine CPU cost constants of the paper's
// evaluation (Figure 5.9, rows 1-4), and the same quantities measured on
// the host running this reproduction.
//
// The paper timed block coding, block decoding (t2), and raw tuple
// extraction (t3) on three 1995 workstations. Those numbers are inputs to
// the analytic response-time model C = I + N(t1 + t_cpu) of Section 5.3;
// reproducing the model's shape requires the published constants, while
// reproducing the measurement requires timing this host. The experiment
// harness does both: the three paper machines use the published rows, and
// a fourth "this host" row uses live measurements (RunTiming).

package experiments

import "time"

// Machine is a CPU profile: the average per-block times for the paper's
// 8192-byte blocks of the Section 5.2 relation.
type Machine struct {
	// Name identifies the machine.
	Name string
	// BlockCode is the average time to AVQ-code one block (row 1).
	BlockCode time.Duration
	// BlockDecode is t2, the average time to decode one block (row 2).
	BlockDecode time.Duration
	// Extract is t3, the time to extract tuples from an uncoded block
	// (row 4).
	Extract time.Duration
}

// PaperMachines returns the three workstations of Figure 5.9 with the
// published measurements.
func PaperMachines() []Machine {
	return []Machine{
		{
			Name:        "HP 9000/735",
			BlockCode:   13910 * time.Microsecond,
			BlockDecode: 13850 * time.Microsecond,
			Extract:     1340 * time.Microsecond,
		},
		{
			Name:        "Sun 4/50",
			BlockCode:   40290 * time.Microsecond,
			BlockDecode: 40450 * time.Microsecond,
			Extract:     3700 * time.Microsecond,
		},
		{
			Name:        "DEC 5000/120",
			BlockCode:   69920 * time.Microsecond,
			BlockDecode: 61330 * time.Microsecond,
			Extract:     9770 * time.Microsecond,
		},
	}
}

// hostMachine returns a Machine named "this host" from live measurements.
func hostMachine(code, decode, extract time.Duration) Machine {
	return Machine{Name: "this host", BlockCode: code, BlockDecode: decode, Extract: extract}
}
