// Package storage provides fixed-size page stores. A page is the paper's
// disk block: the unit of I/O transfer and of AVQ coding scope (Section
// 3.3). Two implementations are provided: an in-memory pager for
// simulations and tests, and a file-backed pager for durable storage. Both
// reuse freed pages through a free list.
package storage

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
)

// PageID identifies a page within a pager. IDs are dense, starting at 0.
type PageID uint32

// InvalidPage is a sentinel never returned by Allocate.
const InvalidPage = PageID(^uint32(0))

// DefaultPageSize is the paper's block size (Section 5.2).
const DefaultPageSize = 8192

// Errors returned by pagers.
var (
	ErrPageOutOfRange = errors.New("storage: page id out of range")
	ErrPageFreed      = errors.New("storage: page is on the free list")
	ErrBadPageSize    = errors.New("storage: data length does not match page size")
	ErrClosed         = errors.New("storage: pager is closed")
)

// Pager is a fixed-size page store.
//
// Implementations are safe for concurrent use.
type Pager interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// NumPages returns the number of allocated pages, including freed ones
	// still occupying their slot.
	NumPages() int
	// Read copies page id into buf, which must be exactly PageSize bytes.
	Read(id PageID, buf []byte) error
	// Write replaces page id with data, which must be exactly PageSize bytes.
	Write(id PageID, data []byte) error
	// Allocate returns a zeroed page, reusing freed pages when available.
	Allocate() (PageID, error)
	// Free returns a page to the free list. Freeing a page twice is an error.
	Free(id PageID) error
	// Close releases resources. Further operations return ErrClosed.
	Close() error
}

// DurablePager is a Pager whose contents can survive the process: it can
// flush buffered writes to stable storage and it supports the deferred-
// free protocol crash-consistent catalogs rely on (pages freed between
// checkpoints stay intact until ReleasePending, after the next catalog is
// durable). FilePager implements it over a page file; backend.Pager
// implements it over a keyed object store.
type DurablePager interface {
	Pager
	// Sync makes all completed writes durable.
	Sync() error
	// SetDeferredFree switches the pager into (or out of) deferred-free
	// mode: freed pages become unreadable but are not reused (or
	// destroyed) until ReleasePending.
	SetDeferredFree(on bool)
	// ReleasePending makes pages freed since the last call reusable.
	ReleasePending()
}

// MemPager is an in-memory Pager.
type MemPager struct {
	mu       sync.RWMutex
	pageSize int
	pages    [][]byte
	freed    []PageID
	isFree   map[PageID]bool
	closed   bool
}

// NewMemPager creates an in-memory pager with the given page size.
func NewMemPager(pageSize int) (*MemPager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: page size %d must be positive", pageSize)
	}
	return &MemPager{pageSize: pageSize, isFree: make(map[PageID]bool)}, nil
}

// PageSize implements Pager.
func (p *MemPager) PageSize() int { return p.pageSize }

// NumPages implements Pager.
func (p *MemPager) NumPages() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.pages)
}

func (p *MemPager) check(id PageID, buf []byte) error {
	if p.closed {
		return ErrClosed
	}
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, len(p.pages))
	}
	if p.isFree[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("%w: %d != %d", ErrBadPageSize, len(buf), p.pageSize)
	}
	return nil
}

// Read implements Pager.
func (p *MemPager) Read(id PageID, buf []byte) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.check(id, buf); err != nil {
		return err
	}
	copy(buf, p.pages[id])
	return nil
}

// Write implements Pager.
func (p *MemPager) Write(id PageID, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id, data); err != nil {
		return err
	}
	copy(p.pages[id], data)
	return nil
}

// Allocate implements Pager.
func (p *MemPager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrClosed
	}
	if n := len(p.freed); n > 0 {
		id := p.freed[n-1]
		p.freed = p.freed[:n-1]
		delete(p.isFree, id)
		clear(p.pages[id])
		return id, nil
	}
	if len(p.pages) >= int(InvalidPage) {
		return InvalidPage, errors.New("storage: pager full")
	}
	id := PageID(len(p.pages))
	p.pages = append(p.pages, make([]byte, p.pageSize))
	return id, nil
}

// Free implements Pager.
func (p *MemPager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if int(id) >= len(p.pages) {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, len(p.pages))
	}
	if p.isFree[id] {
		return fmt.Errorf("%w: double free of %d", ErrPageFreed, id)
	}
	p.isFree[id] = true
	p.freed = append(p.freed, id)
	return nil
}

// Close implements Pager.
func (p *MemPager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.closed = true
	p.pages = nil
	return nil
}

// FilePager is a Pager backed by a single file of fixed-size pages. The
// free list is kept in memory; callers that need a durable free list can
// rebuild it from their own metadata at open time.
type FilePager struct {
	mu        sync.Mutex
	pageSize  int
	f         File
	numPages  int
	freed     []PageID
	pending   []PageID // freed but not yet reusable (deferred mode)
	deferFree bool
	isFree    map[PageID]bool
	closed    bool
	zero      []byte // one zeroed page, the source of Allocate's writes
}

// OpenFilePager opens (or creates) a file-backed pager at path on the real
// filesystem. An existing file must have a size that is a multiple of
// pageSize.
func OpenFilePager(path string, pageSize int) (*FilePager, error) {
	return OpenFilePagerFS(OSFS{}, path, pageSize)
}

// OpenFilePagerFS is OpenFilePager over an explicit FS. When the call
// creates the file, the parent directory is fsynced so the new entry
// survives a crash (a file created but not linked durably can vanish on
// reboot even after its contents were fsynced).
func OpenFilePagerFS(fs FS, path string, pageSize int) (*FilePager, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: page size %d must be positive", pageSize)
	}
	_, statErr := fs.Stat(path)
	existed := statErr == nil
	f, err := fs.OpenFile(path, os.O_RDWR|os.O_CREATE)
	if err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", path, err)
	}
	size, err := fs.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("storage: stat %s: %w", path, errors.Join(err, f.Close()))
	}
	if size%int64(pageSize) != 0 {
		return nil, errors.Join(fmt.Errorf("storage: %s size %d is not a multiple of page size %d", path, size, pageSize), f.Close())
	}
	if !existed {
		if err := fs.SyncDir(filepath.Dir(path)); err != nil {
			return nil, errors.Join(err, f.Close())
		}
	}
	return &FilePager{
		pageSize: pageSize,
		f:        f,
		numPages: int(size / int64(pageSize)),
		isFree:   make(map[PageID]bool),
		zero:     make([]byte, pageSize),
	}, nil
}

// PageSize implements Pager.
func (p *FilePager) PageSize() int { return p.pageSize }

// NumPages implements Pager.
func (p *FilePager) NumPages() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.numPages
}

func (p *FilePager) check(id PageID, buf []byte) error {
	if p.closed {
		return ErrClosed
	}
	if int(id) >= p.numPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, p.numPages)
	}
	if p.isFree[id] {
		return fmt.Errorf("%w: %d", ErrPageFreed, id)
	}
	if len(buf) != p.pageSize {
		return fmt.Errorf("%w: %d != %d", ErrBadPageSize, len(buf), p.pageSize)
	}
	return nil
}

// Read implements Pager.
func (p *FilePager) Read(id PageID, buf []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id, buf); err != nil {
		return err
	}
	if _, err := p.f.ReadAt(buf, int64(id)*int64(p.pageSize)); err != nil && err != io.EOF {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// Write implements Pager.
func (p *FilePager) Write(id PageID, data []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.check(id, data); err != nil {
		return err
	}
	if _, err := p.f.WriteAt(data, int64(id)*int64(p.pageSize)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// Allocate implements Pager. A reused page stays on the free list until
// its zero write succeeds, so a failed write leaves it free, not lost.
func (p *FilePager) Allocate() (PageID, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return InvalidPage, ErrClosed
	}
	if n := len(p.freed); n > 0 {
		id := p.freed[n-1]
		if _, err := p.f.WriteAt(p.zero, int64(id)*int64(p.pageSize)); err != nil {
			return InvalidPage, fmt.Errorf("storage: zero reused page %d: %w", id, err)
		}
		p.freed = p.freed[:n-1]
		delete(p.isFree, id)
		return id, nil
	}
	id := PageID(p.numPages)
	if _, err := p.f.WriteAt(p.zero, int64(id)*int64(p.pageSize)); err != nil {
		return InvalidPage, fmt.Errorf("storage: extend to page %d: %w", id, err)
	}
	p.numPages++
	return id, nil
}

// Free implements Pager. In deferred-free mode (SetDeferredFree) the page
// becomes unreadable immediately but is not reused until ReleasePending,
// so data referenced by the last durable catalog is never overwritten
// before the next one commits.
func (p *FilePager) Free(id PageID) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if int(id) >= p.numPages {
		return fmt.Errorf("%w: %d >= %d", ErrPageOutOfRange, id, p.numPages)
	}
	if p.isFree[id] {
		return fmt.Errorf("%w: double free of %d", ErrPageFreed, id)
	}
	p.isFree[id] = true
	if p.deferFree {
		p.pending = append(p.pending, id)
	} else {
		p.freed = append(p.freed, id)
	}
	return nil
}

// SetDeferredFree switches the pager into (or out of) deferred-free mode.
// Crash-consistent callers enable it and call ReleasePending only after a
// durable catalog no longer references the freed pages.
func (p *FilePager) SetDeferredFree(on bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.deferFree = on
	if !on {
		p.freed = append(p.freed, p.pending...)
		p.pending = nil
	}
}

// ReleasePending makes pages freed since the last call reusable by
// Allocate.
func (p *FilePager) ReleasePending() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.freed = append(p.freed, p.pending...)
	p.pending = nil
}

// Sync flushes buffered writes to stable storage.
func (p *FilePager) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	return p.f.Sync()
}

var _ DurablePager = (*FilePager)(nil)

// Close implements Pager. It flushes buffered writes before closing and
// surfaces the Sync error if the flush fails: silently dropping it would
// let a caller treat an undurable file as safely closed.
func (p *FilePager) Close() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	serr := p.f.Sync()
	cerr := p.f.Close()
	if serr != nil {
		return fmt.Errorf("storage: sync on close: %w", serr)
	}
	if cerr != nil {
		return fmt.Errorf("storage: close: %w", cerr)
	}
	return nil
}
