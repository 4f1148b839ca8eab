package backend

import (
	"context"
	"errors"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/storage"
)

// ObjectStore simulates an S3-style object service over a storage.FS: a
// flat keyspace where PUT is atomic, GET supports byte ranges, and
// listing is a sorted prefix scan. Every object lives as one file in a
// single bucket directory, its name the URL-escaped key ('/' becomes
// %2F), so the hierarchy of the key space never touches the filesystem —
// exactly how a real object store flattens keys. Running it over
// simdisk.FaultFS fault-injects "the object service" with the same
// syscall-tick model the disk gets.
type ObjectStore struct {
	handleCache // GETs: ReadBlock, ReadBlockRange, ReadBlockInto, Close
	bucket      string
}

// NewObjectStore opens an object store whose bucket directory is dir on
// fsys (the real filesystem when fsys is nil).
func NewObjectStore(fsys storage.FS, dir string) (*ObjectStore, error) {
	if fsys == nil {
		fsys = storage.OSFS{}
	}
	if dir == "" {
		return nil, errors.New("backend: object store needs a bucket directory")
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("backend: create bucket %s: %w", dir, err)
	}
	s := &ObjectStore{bucket: dir}
	s.handleCache = handleCache{fs: fsys, path: s.pathOf, handles: make(map[string]*handle)}
	return s, nil
}

// Kind implements Store.
func (s *ObjectStore) Kind() Kind { return KindObject }

// pathOf maps a key to its object file: the escaped key inside the bucket.
func (s *ObjectStore) pathOf(key string) string {
	return filepath.Join(s.bucket, url.QueryEscape(key))
}

// WriteBlock implements Store: an atomic PUT.
func (s *ObjectStore) WriteBlock(ctx context.Context, key string, data []byte) error {
	if err := s.writable(ctx, key); err != nil {
		return err
	}
	err := storage.WriteFileAtomic(s.fs, s.pathOf(key), data)
	s.invalidate(key)
	return err
}

// DeleteBlock implements Store.
func (s *ObjectStore) DeleteBlock(ctx context.Context, key string) error {
	if err := s.writable(ctx, key); err != nil {
		return err
	}
	err := s.fs.Remove(s.pathOf(key))
	s.invalidate(key)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return fmt.Errorf("backend: delete object %q: %w", key, err)
	}
	return s.fs.SyncDir(s.bucket)
}

// DeleteByPrefix implements Store.
func (s *ObjectStore) DeleteByPrefix(ctx context.Context, prefix string) (int, error) {
	return deleteByPrefix(ctx, s, prefix)
}

// List implements Store. Objects whose escaped name ends in ".tmp" are
// in-flight PUT temporaries from a crashed writer, never keys.
func (s *ObjectStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validPrefix(prefix); err != nil {
		return nil, err
	}
	if s.isClosed() {
		return nil, ErrClosed
	}
	names, err := s.fs.ReadDir(s.bucket)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("backend: list bucket %s: %w", s.bucket, err)
	}
	var keys []string
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			continue
		}
		key, err := url.QueryUnescape(name)
		if err != nil {
			continue // not one of ours
		}
		if strings.HasPrefix(key, prefix) {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys, nil
}
