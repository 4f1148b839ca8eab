package backend

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/storage"
)

// FilesystemStore maps keys onto files under a root directory: key
// "shard-0000/blk-17" becomes <root>/shard-0000/blk-17. Writes go through
// storage.WriteFileAtomic (temp file + fsync + rename + parent-dir
// fsync), so a blob is atomically either its old or its new contents
// across a crash. The store runs over any storage.FS; crash tests inject
// simdisk.NewFaultFS().
type FilesystemStore struct {
	handleCache // GETs: ReadBlock, ReadBlockRange, ReadBlockInto, Close
	root        string
}

// NewFilesystemStore opens a filesystem store rooted at dir on fsys (the
// real filesystem when fsys is nil). The root is created if missing.
func NewFilesystemStore(fsys storage.FS, dir string) (*FilesystemStore, error) {
	if fsys == nil {
		fsys = storage.OSFS{}
	}
	if dir == "" {
		return nil, errors.New("backend: filesystem store needs a root directory")
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("backend: create root %s: %w", dir, err)
	}
	s := &FilesystemStore{root: dir}
	s.handleCache = handleCache{fs: fsys, path: s.pathOf, handles: make(map[string]*handle)}
	return s, nil
}

// Kind implements Store.
func (s *FilesystemStore) Kind() Kind { return KindFilesystem }

// pathOf maps a validated key onto the backing filesystem.
func (s *FilesystemStore) pathOf(key string) string {
	return filepath.Join(s.root, filepath.FromSlash(key))
}

// WriteBlock implements Store.
func (s *FilesystemStore) WriteBlock(ctx context.Context, key string, data []byte) error {
	if err := s.writable(ctx, key); err != nil {
		return err
	}
	p := s.pathOf(key)
	if dir := filepath.Dir(p); dir != s.root {
		if err := s.fs.MkdirAll(dir); err != nil {
			return fmt.Errorf("backend: mkdir %s: %w", dir, err)
		}
	}
	err := storage.WriteFileAtomic(s.fs, p, data)
	s.invalidate(key)
	return err
}

// DeleteBlock implements Store.
func (s *FilesystemStore) DeleteBlock(ctx context.Context, key string) error {
	if err := s.writable(ctx, key); err != nil {
		return err
	}
	p := s.pathOf(key)
	err := s.fs.Remove(p)
	s.invalidate(key)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("%w: %q", ErrNotFound, key)
		}
		return fmt.Errorf("backend: remove %s: %w", p, err)
	}
	return s.fs.SyncDir(filepath.Dir(p))
}

// DeleteByPrefix implements Store.
func (s *FilesystemStore) DeleteByPrefix(ctx context.Context, prefix string) (int, error) {
	return deleteByPrefix(ctx, s, prefix)
}

// List implements Store. It walks the directory tree under the root; an
// entry is a directory iff it can itself be listed. Temp files left by a
// crashed WriteFileAtomic (suffix ".tmp") are never reported as keys.
func (s *FilesystemStore) List(ctx context.Context, prefix string) ([]string, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validPrefix(prefix); err != nil {
		return nil, err
	}
	if s.isClosed() {
		return nil, ErrClosed
	}
	var keys []string
	var walk func(dir, keyPrefix string) error
	walk = func(dir, keyPrefix string) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		names, err := s.fs.ReadDir(dir)
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return fmt.Errorf("backend: list %s: %w", dir, err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, ".tmp") {
				continue
			}
			key := name
			if keyPrefix != "" {
				key = keyPrefix + "/" + name
			}
			full := filepath.Join(dir, name)
			if _, derr := s.fs.ReadDir(full); derr == nil {
				if err := walk(full, key); err != nil {
					return err
				}
				continue
			}
			if strings.HasPrefix(key, prefix) {
				keys = append(keys, key)
			}
		}
		return nil
	}
	if err := walk(s.root, ""); err != nil {
		return nil, err
	}
	sort.Strings(keys)
	return keys, nil
}
