// Package pinflow is an analyzer fixture: buffer-pool pins proven (or
// disproven) along every control-flow path. The branchLeak case is the
// one the old flow-insensitive unpinpair rule could not see: a single
// Unpin anywhere in the function satisfied it, even when another path
// leaked. corruptLengthLeak is the rule's proof: a leak seeded into
// blockstore's Store.readStream that no test, race run or pin-count
// assertion caught.
package pinflow

import (
	"encoding/binary"
	"errors"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// corruptLengthLeak is Store.readStream with its corrupt-length check
// turned into an early return: the pin leaks on the one branch only a
// damaged page reaches, which no test takes with a pin count to check.
func corruptLengthLeak(p *buffer.Pool, id storage.PageID, dst []byte, capacity int) ([]byte, error) {
	f, err := p.Get(id)
	if err != nil {
		return nil, err
	}
	data := f.Data()
	l := int(binary.BigEndian.Uint32(data[:4]))
	if l > capacity {
		return nil, errors.New("page claims a stream longer than its capacity")
	}
	stream := append(dst, data[4:4+l]...)
	if err := p.Unpin(f); err != nil {
		return nil, err
	}
	return stream, nil
}

// goodReadStream is Store.readStream as it is: the corrupt length becomes
// the error the one Unpin's error is folded into. Clean.
func goodReadStream(p *buffer.Pool, id storage.PageID, dst []byte, capacity int) ([]byte, error) {
	f, err := p.Get(id)
	if err != nil {
		return nil, err
	}
	data := f.Data()
	l := int(binary.BigEndian.Uint32(data[:4]))
	var stream []byte
	if l > capacity {
		err = errors.New("page claims a stream longer than its capacity")
	} else {
		stream = append(dst, data[4:4+l]...)
	}
	if uerr := p.Unpin(f); err == nil {
		err = uerr
	}
	if err != nil {
		return nil, err
	}
	return stream, nil
}

// branchLeak unpins on the flush path only; the plain path leaks the pin.
func branchLeak(p *buffer.Pool, id storage.PageID, flush bool) error {
	f, err := p.Get(id)
	if err != nil {
		return err
	}
	if flush {
		f.MarkDirty()
		return p.Unpin(f)
	}
	return nil
}

// alwaysLeak pins a frame and never unpins it on any path.
func alwaysLeak(p *buffer.Pool, id storage.PageID) (byte, error) {
	f, err := p.Get(id)
	if err != nil {
		return 0, err
	}
	b := f.Data()[0]
	return b, nil
}

// discardExpr throws the pinned frame away outright.
func discardExpr(p *buffer.Pool) {
	p.Allocate()
}

// suppressedBranchLeak is a known branch leak with a justification.
func suppressedBranchLeak(p *buffer.Pool, id storage.PageID, keep bool) error {
	f, err := p.Get(id) //avqlint:ignore pinflow fixture: proves suppression works
	if err != nil {
		return err
	}
	if keep {
		return nil
	}
	return p.Unpin(f)
}

// goodBothBranches releases on every branch: clean.
func goodBothBranches(p *buffer.Pool, id storage.PageID, dirty bool) error {
	f, err := p.Get(id)
	if err != nil {
		return err
	}
	if dirty {
		f.MarkDirty()
		return p.Unpin(f)
	}
	return p.Unpin(f)
}

// goodDefer releases every path past the registration: clean.
func goodDefer(p *buffer.Pool, id storage.PageID) (int, error) {
	f, err := p.Get(id)
	if err != nil {
		return 0, err
	}
	defer p.Unpin(f)
	return len(f.Data()), nil
}

// goodReturn hands the pinned frame to the caller, which owns the unpin.
func goodReturn(p *buffer.Pool) (*buffer.Frame, error) {
	f, err := p.Allocate()
	if err != nil {
		return nil, err
	}
	f.MarkDirty()
	return f, nil
}

// goodNilCheck releases behind a nil guard; the nil path never pinned.
func goodNilCheck(p *buffer.Pool, id storage.PageID) {
	f, _ := p.Get(id)
	if f != nil {
		p.Unpin(f)
	}
}

// goodLoop pins and unpins per iteration; the fixpoint must converge and
// stay clean through the back edge.
func goodLoop(p *buffer.Pool, ids []storage.PageID) (int, error) {
	total := 0
	for _, id := range ids {
		f, err := p.Get(id)
		if err != nil {
			return total, err
		}
		total += len(f.Data())
		if uerr := p.Unpin(f); uerr != nil {
			return total, uerr
		}
	}
	return total, nil
}
