// Package simdisk models the disk of the paper's evaluation (Section
// 5.3.2): per-block access cost is seek time + rotational delay + transfer
// time + controller overhead, following the disk-architecture survey of
// Katz, Gibson and Patterson that the paper cites. With the paper's default
// parameters (20 ms seek, 8 ms rotation, 3 Mb/s transfer, 2 ms controller)
// an 8192-byte block costs about 30 ms — the paper's t1.
//
// The model is analytic: nothing here sits on the read or write path. N,
// the number of blocks a query accesses (Section 5.3.3), is measured as
// the buffer pool's misses, and BlockTime turns it into simulated time.
package simdisk

import "time"

// Params describes the disk cost model.
type Params struct {
	// Seek is the average seek time per access.
	Seek time.Duration
	// Rotation is the average rotational delay per access.
	Rotation time.Duration
	// TransferBitsPerSec is the sustained media transfer rate in bits/s.
	TransferBitsPerSec float64
	// Controller is the controller overhead per access.
	Controller time.Duration
}

// PaperParams returns the parameter set of Section 5.3.2: 20 ms seek
// (middle of the quoted 10-20 ms range), 8 ms rotational delay, a transfer
// rate the paper writes as "3 Mb/sec", and 2 ms controller overhead. The
// paper's own arithmetic (8192 b / 3 Mb ~ 2.7 ms, total ~30 ms per 8 KiB
// block) shows the rate is 3 megabytes per second, so that is what this
// model uses: 24e6 bits/s.
func PaperParams() Params {
	return Params{
		Seek:               20 * time.Millisecond,
		Rotation:           8 * time.Millisecond,
		TransferBitsPerSec: 24e6,
		Controller:         2 * time.Millisecond,
	}
}

// BlockTime returns the modeled time to read or write one block of the
// given size with random positioning. For the paper's parameters and an
// 8192-byte block this is 20 + 8 + (8192*8 bits / 3 Mb/s) + 2 ms, which
// the paper rounds to 30 ms.
func (p Params) BlockTime(blockSize int) time.Duration {
	transfer := time.Duration(float64(blockSize*8) / p.TransferBitsPerSec * float64(time.Second))
	return p.Seek + p.Rotation + transfer + p.Controller
}
