// Package framealias is an analyzer fixture: uses of Frame.Data slices
// after Unpin, and correct pin-scoped uses.
package framealias

import (
	"encoding/binary"

	"repro/internal/buffer"
	"repro/internal/storage"
)

// decodeAfterUnpin is Store.decodeBlock with its deferred Unpin moved
// ahead of the decode: the stream is read from a page the pool may
// already have given to another reader. No test or race run caught that
// mutation in the real code.
func decodeAfterUnpin(p *buffer.Pool, id storage.PageID) ([]byte, error) {
	f, err := p.Get(id)
	if err != nil {
		return nil, err
	}
	data := f.Data()
	if err := p.Unpin(f); err != nil {
		return nil, err
	}
	l := binary.BigEndian.Uint32(data[:4])
	return data[4 : 4+l], nil
}

// callAfterUnpin calls Data() itself after the unpin.
func callAfterUnpin(p *buffer.Pool, id storage.PageID) (int, error) {
	f, err := p.Get(id)
	if err != nil {
		return 0, err
	}
	if err := p.Unpin(f); err != nil {
		return 0, err
	}
	return len(f.Data()), nil
}

// goodBeforeUnpin copies what it needs while pinned.
func goodBeforeUnpin(p *buffer.Pool, id storage.PageID) (byte, error) {
	f, err := p.Get(id)
	if err != nil {
		return 0, err
	}
	d := f.Data()
	b := d[0]
	if err := p.Unpin(f); err != nil {
		return 0, err
	}
	return b, nil
}

// goodDeferUnpin may use the slice anywhere: the unpin runs at return.
func goodDeferUnpin(p *buffer.Pool, id storage.PageID) (byte, error) {
	f, err := p.Get(id)
	if err != nil {
		return 0, err
	}
	defer p.Unpin(f)
	d := f.Data()
	return d[len(d)-1], nil
}
