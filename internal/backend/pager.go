package backend

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Pager adapts a Store to storage.Pager: every page is one object named
// <prefix>pages/<id>, written whole. Because WriteBlock is atomic and
// durable on return, the pager's Sync is a no-op and the two-barrier
// checkpoint ordering (data pages durable before catalog pages) falls out
// of plain write order. It implements storage.DurablePager, so tables run
// the same crash-consistency protocol over an object store as over a page
// file: deferred frees park pages until the next durable catalog, then
// ReleasePending deletes their objects.
//
// Missing page objects below the high-water mark (deleted frees, or
// objects lost with an unsynced crash) read as errors; they are exactly
// the pages no durable catalog references, and the table returns them to
// the free list at open.
type Pager struct {
	mu        sync.Mutex
	store     Store
	pages     string // prefix + "pages/": every page key starts with it
	pageSize  int
	numPages  int
	freed     []storage.PageID
	pending   []storage.PageID // freed but not yet reusable (deferred mode)
	deferFree bool
	isFree    map[storage.PageID]bool
	closed    bool
}

// NewPager opens (or reattaches to) a paged region of the store under
// prefix. Existing page objects set the allocation high-water mark, so a
// reopened pager sees the pages a catalog may reference.
func NewPager(store Store, prefix string, pageSize int) (*Pager, error) {
	if store == nil {
		return nil, errors.New("backend: pager needs a store")
	}
	if pageSize <= 0 {
		return nil, fmt.Errorf("backend: page size %d must be positive", pageSize)
	}
	if prefix != "" && !strings.HasSuffix(prefix, "/") {
		prefix += "/"
	}
	if prefix != "" {
		if err := ValidateKey(strings.TrimSuffix(prefix, "/")); err != nil {
			return nil, err
		}
	}
	p := &Pager{
		store:    store,
		pages:    prefix + "pages/",
		pageSize: pageSize,
		isFree:   make(map[storage.PageID]bool),
	}
	//avqlint:ignore ctxflow storage.Pager is context-free; opening is uninterruptible setup
	keys, err := store.List(context.Background(), p.pages)
	if err != nil {
		return nil, err
	}
	for _, key := range keys {
		id, perr := strconv.Atoi(key[strings.LastIndexByte(key, '/')+1:])
		if perr != nil {
			return nil, fmt.Errorf("backend: foreign object %q under page prefix", key)
		}
		if id+1 > p.numPages {
			p.numPages = id + 1
		}
	}
	return p, nil
}

// key names page id's object: the page prefix, then the id zero-padded
// to ten digits (every uint32 id fits), built in one allocation.
func (p *Pager) key(id storage.PageID) string {
	var digits [10]byte
	d := strconv.AppendUint(digits[:0], uint64(id), 10)
	var b strings.Builder
	b.Grow(len(p.pages) + len(digits))
	b.WriteString(p.pages)
	for i := len(d); i < len(digits); i++ {
		b.WriteByte('0')
	}
	b.Write(d)
	return b.String()
}

// PageSize implements storage.Pager.
func (p *Pager) PageSize() int { return p.pageSize }

// NumPages implements storage.Pager.
func (p *Pager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.numPages
}

func (p *Pager) check(id storage.PageID, buf []byte) error {
	if p.closed {
		return storage.ErrClosed
	}
	if int(id) >= p.numPages {
		return fmt.Errorf("%w: %d >= %d", storage.ErrPageOutOfRange, id, p.numPages)
	}
	if p.isFree[id] {
		return fmt.Errorf("%w: %d", storage.ErrPageFreed, id)
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("%w: %d != %d", storage.ErrBadPageSize, len(buf), p.pageSize)
	}
	return nil
}

// Read implements storage.Pager: one ReadBlockInto straight into buf,
// which checks the object holds exactly one page. Only the page check
// holds p.mu; the object read does not, so reads of different pages
// overlap. The buffer pool never frees or writes a page while a read of
// it is in flight.
func (p *Pager) Read(id storage.PageID, buf []byte) error {
	p.mu.Lock()
	err := p.check(id, buf)
	p.mu.Unlock()
	if err != nil {
		return err
	}
	//avqlint:ignore ctxflow storage.Pager is context-free
	size, err := p.store.ReadBlockInto(context.Background(), p.key(id), buf)
	if errors.Is(err, ErrBadRange) {
		return fmt.Errorf("backend: page %d object holds %d bytes, want %d", id, size, p.pageSize)
	}
	if err != nil {
		return fmt.Errorf("backend: read page %d: %w", id, err)
	}
	return nil
}

// Write implements storage.Pager.
func (p *Pager) Write(id storage.PageID, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id, data); err != nil {
		return err
	}
	//avqlint:ignore ctxflow storage.Pager is context-free
	if err := p.store.WriteBlock(context.Background(), p.key(id), data); err != nil {
		return fmt.Errorf("backend: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements storage.Pager. Like FilePager it materializes the
// page zeroed, so a crash before the first real write reads back zeros,
// not a missing object.
func (p *Pager) Allocate() (storage.PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return storage.InvalidPage, storage.ErrClosed
	}
	id := storage.PageID(p.numPages)
	reused := false
	if n := len(p.freed); n > 0 {
		id = p.freed[n-1]
		reused = true
	}
	//avqlint:ignore ctxflow storage.Pager is context-free
	if err := p.store.WriteBlock(context.Background(), p.key(id), make([]byte, p.pageSize)); err != nil {
		return storage.InvalidPage, fmt.Errorf("backend: zero page %d: %w", id, err)
	}
	if reused {
		p.freed = p.freed[:len(p.freed)-1]
		delete(p.isFree, id)
	} else {
		p.numPages++
	}
	return id, nil
}

// Free implements storage.Pager. In deferred-free mode (SetDeferredFree)
// the page becomes unreadable immediately but its object survives until
// ReleasePending, so blobs referenced by the last durable catalog are
// never destroyed before the next one commits.
func (p *Pager) Free(id storage.PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return storage.ErrClosed
	}
	if int(id) >= p.numPages {
		return fmt.Errorf("%w: %d >= %d", storage.ErrPageOutOfRange, id, p.numPages)
	}
	if p.isFree[id] {
		return fmt.Errorf("%w: double free of %d", storage.ErrPageFreed, id)
	}
	p.isFree[id] = true
	if p.deferFree {
		p.pending = append(p.pending, id)
		return nil
	}
	p.freed = append(p.freed, id)
	p.deleteObject(id)
	return nil
}

// deleteObject best-effort removes a freed page's object. A missing
// object (already gone with a crash) is fine; a failed delete leaks one
// object until the page is reused.
func (p *Pager) deleteObject(id storage.PageID) {
	//avqlint:ignore ctxflow storage.Pager is context-free
	if err := p.store.DeleteBlock(context.Background(), p.key(id)); err != nil && !errors.Is(err, ErrNotFound) {
		_ = err //avqlint:ignore droppederr freed-page objects are unreferenced; a leaked one is reclaimed on reuse
	}
}

// SetDeferredFree implements storage.DurablePager.
func (p *Pager) SetDeferredFree(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deferFree = on
	if !on {
		p.releaseLocked()
	}
}

// ReleasePending implements storage.DurablePager: pages freed since the
// last call become reusable and their objects are deleted.
func (p *Pager) ReleasePending() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.releaseLocked()
}

func (p *Pager) releaseLocked() {
	for _, id := range p.pending {
		p.deleteObject(id)
	}
	p.freed = append(p.freed, p.pending...)
	p.pending = nil
}

// Sync implements storage.DurablePager. Every WriteBlock is durable on
// return, so there is nothing to flush.
func (p *Pager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return storage.ErrClosed
	}
	return nil
}

// Close implements storage.Pager. The underlying store is shared (other
// pagers and the shard catalog live in it) and stays open.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	return nil
}

var _ storage.DurablePager = (*Pager)(nil)
