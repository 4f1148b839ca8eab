package backend

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// MemoryStore is the in-process Store: a map under a mutex. Blobs are
// copied on write and on read, so callers may reuse their buffers.
type MemoryStore struct {
	mu     sync.RWMutex
	blobs  map[string][]byte
	closed bool
}

// NewMemoryStore returns an empty in-memory store.
func NewMemoryStore() *MemoryStore {
	return &MemoryStore{blobs: make(map[string][]byte)}
}

// Kind implements Store.
func (s *MemoryStore) Kind() Kind { return KindMemory }

// WriteBlock implements Store.
func (s *MemoryStore) WriteBlock(ctx context.Context, key string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.blobs[key] = append([]byte(nil), data...)
	return nil
}

// get looks key up for a read. Callers hold s.mu for reading.
func (s *MemoryStore) get(ctx context.Context, key string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := ValidateKey(key); err != nil {
		return nil, err
	}
	if s.closed {
		return nil, ErrClosed
	}
	data, ok := s.blobs[key]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	return data, nil
}

// ReadBlock implements Store.
func (s *MemoryStore) ReadBlock(ctx context.Context, key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := s.get(ctx, key)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// ReadBlockRange implements Store.
func (s *MemoryStore) ReadBlockRange(ctx context.Context, key string, off, length int64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := s.get(ctx, key)
	if err != nil {
		return nil, err
	}
	if err := checkRange(key, int64(len(data)), off, length); err != nil {
		return nil, err
	}
	return append([]byte(nil), data[off:off+length]...), nil
}

// ReadBlockInto implements Store: a copy under the read lock.
func (s *MemoryStore) ReadBlockInto(ctx context.Context, key string, dst []byte) (int64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := s.get(ctx, key)
	if err != nil {
		return 0, err
	}
	size := int64(len(data))
	if err := checkInto(key, size, dst); err != nil {
		return size, err
	}
	copy(dst, data)
	return size, nil
}

// DeleteBlock implements Store.
func (s *MemoryStore) DeleteBlock(ctx context.Context, key string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := ValidateKey(key); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if _, ok := s.blobs[key]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, key)
	}
	delete(s.blobs, key)
	return nil
}

// DeleteByPrefix implements Store.
func (s *MemoryStore) DeleteByPrefix(ctx context.Context, prefix string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	if err := validPrefix(prefix); err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	n := 0
	for key := range s.blobs {
		if strings.HasPrefix(key, prefix) {
			delete(s.blobs, key)
			n++
		}
	}
	return n, nil
}

// List implements Store.
func (s *MemoryStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validPrefix(prefix); err != nil {
		return nil, err
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	var keys []string
	for key := range s.blobs {
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}

// Close implements Store.
func (s *MemoryStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.blobs = nil
	return nil
}
