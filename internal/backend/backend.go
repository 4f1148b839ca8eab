// Package backend abstracts where coded blocks physically live. The block
// store and shard layers address storage through the Store interface — a
// flat, keyed blob space with atomic writes — so the same table runs over
// process memory, a local filesystem, or an S3-style object store without
// either layer knowing which. The interface follows the dittofs
// pkg/blocks/store exemplar: whole-blob writes, ranged reads, prefix
// deletes, and sorted prefix listing, all context-aware.
//
// Three implementations are provided:
//
//   - Memory: a map, for simulations and the memory shard backend.
//   - Filesystem: one file per key under a root directory, written with
//     storage.WriteFileAtomic (temp + fsync + rename + parent-dir fsync).
//   - Object: an S3-style flat keyspace simulated over a storage.FS, so
//     simdisk.FaultFS can fault-inject "the object service" the same way
//     it faults a disk.
//
// All implementations share one durability contract: WriteBlock is atomic
// and durable on return — a crash observes the old blob or the new one,
// never a torn mix. Pager builds the two-barrier checkpoint's page writes
// on it: each page is one WriteBlock, run in the background, and durable
// once the pager's Sync has returned.
//
// The filesystem and object stores share one read path, a cache of open
// read handles (handleCache): a read of a cached key is one pread.
package backend

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Kind names a backend implementation, recorded in shard catalogs so a
// reopened database reattaches to the same storage class.
type Kind uint8

const (
	// KindMemory stores blobs in process memory; contents do not survive
	// the process.
	KindMemory Kind = iota
	// KindFilesystem stores one file per key under a root directory.
	KindFilesystem
	// KindObject stores blobs in a flat S3-style keyspace simulated over a
	// storage.FS.
	KindObject
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindMemory:
		return "memory"
	case KindFilesystem:
		return "filesystem"
	case KindObject:
		return "object"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Valid reports whether k names a known backend.
func (k Kind) Valid() bool { return k <= KindObject }

// ParseKind parses a kind name as printed by String.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "memory":
		return KindMemory, nil
	case "filesystem":
		return KindFilesystem, nil
	case "object":
		return KindObject, nil
	default:
		return 0, fmt.Errorf("backend: unknown kind %q", s)
	}
}

// Errors returned by Store implementations.
var (
	// ErrNotFound reports a read or delete of a key that does not exist.
	ErrNotFound = errors.New("backend: block not found")
	// ErrClosed reports an operation on a closed store.
	ErrClosed = errors.New("backend: store is closed")
	// ErrBadKey reports a syntactically invalid key.
	ErrBadKey = errors.New("backend: bad key")
	// ErrBadRange reports a ReadBlockRange outside the blob, or a
	// ReadBlockInto whose buffer is not the blob's size.
	ErrBadRange = errors.New("backend: range out of bounds")
)

// Store is a flat, keyed blob space. Keys are slash-separated paths (see
// ValidateKey); values are opaque byte blobs written whole and read whole
// or by range. Implementations are safe for concurrent use.
type Store interface {
	// Kind names the implementation.
	Kind() Kind
	// WriteBlock atomically creates or replaces the blob at key. On
	// return the new contents are durable (for durable kinds): a crash
	// observes the old blob or the new one, never a mix.
	WriteBlock(ctx context.Context, key string, data []byte) error
	// ReadBlock returns a copy of the blob at key, or ErrNotFound.
	ReadBlock(ctx context.Context, key string) ([]byte, error)
	// ReadBlockRange returns length bytes starting at off. Reading past
	// the end of the blob fails with ErrBadRange; a negative off or
	// length is ErrBadRange too.
	ReadBlockRange(ctx context.Context, key string, off, length int64) ([]byte, error)
	// ReadBlockInto fills dst with the blob at key when the blob holds
	// exactly len(dst) bytes, and returns the blob's size. A blob of any
	// other size fails with ErrBadRange and leaves dst untouched. It is
	// the allocation-free GET a pager reads a page frame with.
	ReadBlockInto(ctx context.Context, key string, dst []byte) (int64, error)
	// DeleteBlock removes the blob at key, or returns ErrNotFound.
	DeleteBlock(ctx context.Context, key string) error
	// DeleteByPrefix removes every blob whose key starts with prefix and
	// returns how many it removed (zero is not an error).
	DeleteByPrefix(ctx context.Context, prefix string) (int, error)
	// List returns the sorted keys starting with prefix. An empty prefix
	// lists everything.
	List(ctx context.Context, prefix string) ([]string, error)
	// Close releases resources. Further operations return ErrClosed.
	Close() error
}

// ValidateKey checks the key grammar shared by every backend: non-empty,
// slash-separated segments of [A-Za-z0-9._-], no empty segments, and no
// "." or ".." segments (keys must not escape the store's root when mapped
// onto a filesystem).
func ValidateKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: empty", ErrBadKey)
	}
	for _, seg := range strings.Split(key, "/") {
		if seg == "" {
			return fmt.Errorf("%w: %q has an empty segment", ErrBadKey, key)
		}
		if seg == "." || seg == ".." {
			return fmt.Errorf("%w: %q contains %q", ErrBadKey, key, seg)
		}
		for _, r := range seg {
			switch {
			case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
				r == '.', r == '_', r == '-':
			default:
				return fmt.Errorf("%w: %q contains %q", ErrBadKey, key, r)
			}
		}
	}
	return nil
}

// validPrefix checks a List/DeleteByPrefix prefix: like a key but it may
// be empty and may end mid-segment (including a trailing slash).
func validPrefix(prefix string) error {
	if prefix == "" {
		return nil
	}
	trimmed := strings.TrimSuffix(prefix, "/")
	if trimmed == "" {
		return fmt.Errorf("%w: prefix %q", ErrBadKey, prefix)
	}
	return ValidateKey(trimmed)
}

// checkRange bounds a ReadBlockRange request against a blob of size bytes.
func checkRange(key string, size, off, length int64) error {
	if off < 0 || length < 0 || off > size || length > size-off {
		return fmt.Errorf("%w: [%d, %d) of %q (%d bytes)", ErrBadRange, off, off+length, key, size)
	}
	return nil
}

// checkInto fails a ReadBlockInto whose buffer is not the blob's size.
func checkInto(key string, size int64, dst []byte) error {
	if size != int64(len(dst)) {
		return fmt.Errorf("%w: %q holds %d bytes, want %d", ErrBadRange, key, size, len(dst))
	}
	return nil
}

// maxHandles bounds the read handles one file-backed store keeps open. A
// shard_mix database reads its 785 page objects through one store.
const maxHandles = 1024

// handle is one opened object and its size, taken from the handle when it
// was opened. Every write publishes by temp file and rename, so an opened
// object never changes and its size stays true for the handle's life.
type handle struct {
	f    storage.File
	size int64
	refs int  // readers using f
	gone bool // out of the cache: the last release closes f
}

// handleCache is the GET path of the file-backed stores: it keeps one
// open read handle per recently read key, so a read of a cached key is
// one pread.
// ObjectStore and FilesystemStore embed it, each with its own key-to-path
// mapping, and share its ReadBlock, ReadBlockRange, ReadBlockInto and
// Close. The mutex guards map operations only, never a read, so reads
// overlap.
//
// WriteBlock and DeleteBlock invalidate their key once they have touched
// its path. A miss caches the handle it opened only if no invalidation ran
// meanwhile, so a read that raced a replace is served once, never cached
// stale. A store owns its directory: a file changed behind its back, not
// through WriteBlock or DeleteBlock, may be served from a cached handle
// until the key is next written.
type handleCache struct {
	fs   storage.FS
	path func(key string) string

	mu      sync.Mutex
	closed  bool
	epoch   uint64 // bumped by every invalidate
	handles map[string]*handle
}

func (c *handleCache) isClosed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// writable is WriteBlock's and DeleteBlock's preamble: a live ctx, a valid
// key and an open store.
func (c *handleCache) writable(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateKey(key); err != nil {
		return err
	}
	if c.isClosed() {
		return ErrClosed
	}
	return nil
}

// deleteByPrefix is the file-backed stores' DeleteByPrefix: a List, then
// one DeleteBlock per key.
func deleteByPrefix(ctx context.Context, s Store, prefix string) (int, error) {
	keys, err := s.List(ctx, prefix)
	if err != nil {
		return 0, err
	}
	for i, key := range keys {
		if err := s.DeleteBlock(ctx, key); err != nil {
			return i, err
		}
	}
	return len(keys), nil
}

// acquire returns key's handle with a reference the caller releases. A
// miss validates the key, opens its object and sizes it from the handle;
// hint is the size the caller expects (see sizeOf).
func (c *handleCache) acquire(ctx context.Context, key string, hint int64) (*handle, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	if h := c.handles[key]; h != nil {
		h.refs++
		c.mu.Unlock()
		return h, nil
	}
	epoch := c.epoch
	c.mu.Unlock()

	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	f, err := c.fs.OpenFile(c.path(key), os.O_RDONLY)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return nil, fmt.Errorf("backend: open %q: %w", key, err)
	}
	size, err := sizeOf(f, hint)
	if err != nil {
		return nil, fmt.Errorf("backend: size %q: %w", key, errors.Join(err, f.Close()))
	}
	h := &handle{f: f, size: size, refs: 1}
	var evicted storage.File
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, errors.Join(ErrClosed, f.Close())
	}
	// A handle opened while a write or delete ran, or after another miss
	// cached one, serves this read only.
	h.gone = c.epoch != epoch || c.handles[key] != nil
	if !h.gone && len(c.handles) >= maxHandles {
		evicted = c.evictLocked()
		h.gone = evicted == nil
	}
	if !h.gone {
		c.handles[key] = h
	}
	c.mu.Unlock()
	closeHandle(evicted)
	return h, nil
}

// release drops a reader's reference, closing a handle that has left the
// cache once its last reader is done.
func (c *handleCache) release(h *handle) {
	c.mu.Lock()
	h.refs--
	last := h.gone && h.refs == 0
	c.mu.Unlock()
	if last {
		closeHandle(h.f)
	}
}

// invalidate drops key's handle after a write or delete touched its path.
func (c *handleCache) invalidate(key string) {
	c.mu.Lock()
	c.epoch++
	idle := c.dropLocked(key)
	c.mu.Unlock()
	closeHandle(idle)
}

// dropLocked takes key's handle out of the cache and returns its file when
// no reader holds it, for the caller to close outside the lock.
func (c *handleCache) dropLocked(key string) storage.File {
	h := c.handles[key]
	if h == nil {
		return nil
	}
	delete(c.handles, key)
	h.gone = true
	if h.refs > 0 {
		return nil
	}
	return h.f
}

// evictLocked drops one unreferenced handle, the first the map's
// randomized iteration reaches, and returns its file (nil when every
// cached handle is in use).
func (c *handleCache) evictLocked() storage.File {
	for key, h := range c.handles {
		if h.refs == 0 {
			return c.dropLocked(key)
		}
	}
	return nil
}

// closeHandle closes a read-only handle. Nothing was written through it,
// so a failed close loses nothing.
func closeHandle(f storage.File) {
	if f != nil {
		f.Close() //avqlint:ignore droppederr read-only handle; a failed close loses no data
	}
}

// sizeOf measures an opened object from the handle itself, not by a
// second lookup of its path. One two-byte pread straddling the end the
// caller expects (hint) confirms that size; otherwise, or for any hint
// that is not positive, it reads to the end.
func sizeOf(f storage.File, hint int64) (int64, error) {
	if hint > 0 {
		var probe [2]byte
		n, err := f.ReadAt(probe[:], hint-1)
		if n == 1 && errors.Is(err, io.EOF) {
			return hint, nil
		}
		if err != nil && !errors.Is(err, io.EOF) {
			return 0, err
		}
	}
	buf := make([]byte, 8192)
	var size int64
	for {
		n, err := f.ReadAt(buf, size)
		size += int64(n)
		if errors.Is(err, io.EOF) {
			return size, nil
		}
		if err != nil {
			return 0, err
		}
	}
}

// readAt fills p from off with one pread. The object behind a handle
// never changes, so a short read means it was altered behind the store.
func (h *handle) readAt(key string, p []byte, off int64) error {
	n, err := h.f.ReadAt(p, off)
	if n == len(p) {
		return nil
	}
	if err == nil || errors.Is(err, io.EOF) {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("backend: read %q: %w", key, err)
}

// ReadBlock implements Store: a whole-object GET.
func (c *handleCache) ReadBlock(ctx context.Context, key string) ([]byte, error) {
	h, err := c.acquire(ctx, key, -1)
	if err != nil {
		return nil, err
	}
	defer c.release(h)
	buf := make([]byte, h.size)
	if err := h.readAt(key, buf, 0); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadBlockRange implements Store: a ranged GET.
func (c *handleCache) ReadBlockRange(ctx context.Context, key string, off, length int64) ([]byte, error) {
	h, err := c.acquire(ctx, key, off+length)
	if err != nil {
		return nil, err
	}
	defer c.release(h)
	if err := checkRange(key, h.size, off, length); err != nil {
		return nil, err
	}
	buf := make([]byte, length)
	if err := h.readAt(key, buf, off); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadBlockInto implements Store: a whole-object GET into the caller's
// buffer, one pread when the handle is cached.
func (c *handleCache) ReadBlockInto(ctx context.Context, key string, dst []byte) (int64, error) {
	h, err := c.acquire(ctx, key, int64(len(dst)))
	if err != nil {
		return 0, err
	}
	defer c.release(h)
	if err := checkInto(key, h.size, dst); err != nil {
		return h.size, err
	}
	return h.size, h.readAt(key, dst, 0)
}

// Close implements Store: it closes every cached handle, and a handle
// still being read closes when its reader releases it. Further
// operations return ErrClosed.
func (c *handleCache) Close() error {
	c.mu.Lock()
	c.closed = true
	var idle []storage.File
	for key := range c.handles {
		if f := c.dropLocked(key); f != nil {
			idle = append(idle, f)
		}
	}
	c.mu.Unlock()
	for _, f := range idle {
		closeHandle(f)
	}
	return nil
}
