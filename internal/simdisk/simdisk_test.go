package simdisk

import (
	"testing"
	"time"
)

// TestPaperBlockTime verifies the headline constant of Section 5.3.2: with
// the paper's parameters an 8192-byte block costs about 30 ms
// (20 + 8 + 2.73 + 2 = 32.73 ms before the paper's rounding).
func TestPaperBlockTime(t *testing.T) {
	got := PaperParams().BlockTime(8192)
	lo := 30 * time.Millisecond
	hi := 35 * time.Millisecond
	if got < lo || got > hi {
		t.Fatalf("BlockTime(8192) = %v, want within [%v, %v]", got, lo, hi)
	}
}

func TestBlockTimeScalesWithSize(t *testing.T) {
	p := PaperParams()
	small := p.BlockTime(1024)
	large := p.BlockTime(65536)
	if large <= small {
		t.Fatalf("BlockTime not increasing: %v vs %v", small, large)
	}
	// Fixed overheads dominate: the difference must be exactly the
	// transfer-time difference.
	wantDelta := time.Duration(float64((65536-1024)*8) / p.TransferBitsPerSec * float64(time.Second))
	if got := large - small; got != wantDelta {
		t.Fatalf("delta = %v, want %v", got, wantDelta)
	}
}
