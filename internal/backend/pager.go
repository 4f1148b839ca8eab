package backend

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Pager adapts a Store to storage.Pager: every page is one object named
// <prefix>pages/<id>, written whole. It implements storage.DurablePager,
// so tables run the same crash-consistency protocol over an object store
// as over a page file: deferred frees park pages until the next durable
// catalog, then ReleasePending deletes their objects.
//
// A page costs one object write. Allocate writes nothing: a page that was
// allocated and never written reads as zeros, from memory. Write is
// write-behind: it copies the page and returns while the object write
// runs in the background, at most maxInFlight at once (a further Write
// waits for a slot). A read of a page whose write is in flight is served
// from the copy; a rewrite, free or ReleasePending of such a page waits
// for its write. Sync drains every write and returns the first failure,
// which is sticky: once a write has failed, every later Read, Write,
// Allocate, Sync and Close returns it, since the store may hold an older
// page than the one the caller wrote. So a page is durable once Sync
// returns, and the two-barrier checkpoint (data pages durable before the
// catalog pages that name them), which calls Sync at each barrier, keeps
// its order. Close drains too.
//
// Missing page objects below the high-water mark (deleted frees, pages
// allocated but never written, or objects lost with an unsynced crash)
// read as errors once the pager is reopened; they are exactly the pages
// no durable catalog references, and the table returns them to the free
// list at open.
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
	fresh     map[storage.PageID]bool   // allocated, never written: reads as zeros
	inFlight  map[storage.PageID][]byte // copies of pages whose write has not returned
	done      sync.Cond                 // on mu; broadcast as each write returns
	err       error                     // the first failed write, sticky
	closed    bool
}

// maxInFlight bounds the object writes one pager runs at once, and so
// the page copies it holds.
const maxInFlight = 16

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
		fresh:    make(map[storage.PageID]bool),
		inFlight: make(map[storage.PageID][]byte, maxInFlight),
	}
	p.done.L = &p.mu
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
	if p.err != nil {
		return p.err
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

// Read implements storage.Pager. A page whose write is in flight reads
// from its copy, and a never-written page as zeros, both under p.mu. Any
// other page is one ReadBlockInto straight into buf, which checks the
// object holds exactly one page; it does not hold p.mu, so reads of
// different pages overlap. The buffer pool never frees or writes a page
// while a read of it is in flight.
func (p *Pager) Read(id storage.PageID, buf []byte) error {
	p.mu.Lock()
	err := p.check(id, buf)
	served := err != nil
	if !served {
		if data := p.inFlight[id]; data != nil {
			copy(buf, data)
			served = true
		} else if p.fresh[id] {
			clear(buf)
			served = true
		}
	}
	p.mu.Unlock()
	if served {
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

// Write implements storage.Pager: it copies data and starts the page's
// object write, first waiting for the page's previous write and for a
// free slot. The write's outcome surfaces at Sync.
func (p *Pager) Write(id storage.PageID, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		if err := p.check(id, data); err != nil {
			return err
		}
		if p.inFlight[id] == nil && len(p.inFlight) < maxInFlight {
			break
		}
		p.done.Wait()
	}
	page := slices.Clone(data)
	p.inFlight[id] = page
	delete(p.fresh, id)
	go p.put(id, page)
	return nil
}

// put runs one page's object write and retires it.
func (p *Pager) put(id storage.PageID, page []byte) {
	//avqlint:ignore ctxflow storage.Pager is context-free
	err := p.store.WriteBlock(context.Background(), p.key(id), page)
	p.mu.Lock()
	defer p.mu.Unlock()
	if err != nil && p.err == nil {
		p.err = fmt.Errorf("backend: write page %d: %w", id, err)
	}
	delete(p.inFlight, id)
	p.done.Broadcast()
}

// waitLocked waits, on p.mu, until page id's write has returned.
func (p *Pager) waitLocked(id storage.PageID) {
	for p.inFlight[id] != nil {
		p.done.Wait()
	}
}

// drainLocked waits, on p.mu, until every write has returned.
func (p *Pager) drainLocked() {
	for len(p.inFlight) > 0 {
		p.done.Wait()
	}
}

// Allocate implements storage.Pager. It writes nothing: the page reads
// as zeros until its first Write.
func (p *Pager) Allocate() (storage.PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return storage.InvalidPage, storage.ErrClosed
	}
	if p.err != nil {
		return storage.InvalidPage, p.err
	}
	var id storage.PageID
	if n := len(p.freed); n > 0 {
		id = p.freed[n-1]
		p.freed = p.freed[:n-1]
		delete(p.isFree, id)
	} else {
		id = storage.PageID(p.numPages)
		p.numPages++
	}
	p.fresh[id] = true
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
	delete(p.fresh, id)
	if p.deferFree {
		p.pending = append(p.pending, id)
		return nil
	}
	p.waitLocked(id)
	p.deleteObject(id)
	p.freed = append(p.freed, id)
	return nil
}

// deleteObject best-effort removes a freed page's object. A missing
// object (already gone with a crash) is fine; a failed delete leaks one
// object until the page is reused.
func (p *Pager) deleteObject(id storage.PageID) {
	//avqlint:ignore ctxflow storage.Pager is context-free
	if err := p.store.DeleteBlock(context.Background(), p.key(id)); err != nil && !errors.Is(err, ErrNotFound) {
		_ = err
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
// last call become reusable and their objects are deleted, each once its
// write, if one is in flight, has returned.
func (p *Pager) ReleasePending() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.releaseLocked()
}

func (p *Pager) releaseLocked() {
	pending := p.pending
	p.pending = nil
	for _, id := range pending {
		p.waitLocked(id)
		p.deleteObject(id)
	}
	p.freed = append(p.freed, pending...)
}

// Sync implements storage.DurablePager: it waits for every page write
// begun before it and returns the first write failure, if any.
func (p *Pager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return storage.ErrClosed
	}
	p.drainLocked()
	return p.err
}

// Close implements storage.Pager: it refuses further operations, waits
// for every page write in flight and returns the first write failure.
// The underlying store is shared (other pagers and the shard catalog
// live in it) and stays open.
func (p *Pager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.drainLocked()
	return p.err
}

var _ storage.DurablePager = (*Pager)(nil)
