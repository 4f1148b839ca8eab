package backend_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/backend"
	"repro/internal/simdisk"
	"repro/internal/storage"
)

// fixture opens one Store implementation for the shared conformance
// harness, over fsys (the real filesystem when nil; the memory kind has
// none). reopen (nil when the kind cannot reattach) builds a second store
// over the same underlying state.
type fixture struct {
	name   string
	open   func(t *testing.T, fsys storage.FS) (store backend.Store, reopen func() backend.Store)
	kinded backend.Kind
}

func fixtures() []fixture {
	return []fixture{
		{
			name:   "memory",
			kinded: backend.KindMemory,
			open: func(t *testing.T, _ storage.FS) (backend.Store, func() backend.Store) {
				return backend.NewMemoryStore(), nil
			},
		},
		{
			name:   "filesystem",
			kinded: backend.KindFilesystem,
			open: func(t *testing.T, fsys storage.FS) (backend.Store, func() backend.Store) {
				dir := filepath.Join(t.TempDir(), "blocks")
				s, err := backend.NewFilesystemStore(fsys, dir)
				if err != nil {
					t.Fatalf("NewFilesystemStore: %v", err)
				}
				return s, func() backend.Store {
					s2, err := backend.NewFilesystemStore(fsys, dir)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					return s2
				}
			},
		},
		{
			name:   "object",
			kinded: backend.KindObject,
			open: func(t *testing.T, fsys storage.FS) (backend.Store, func() backend.Store) {
				dir := filepath.Join(t.TempDir(), "bucket")
				s, err := backend.NewObjectStore(fsys, dir)
				if err != nil {
					t.Fatalf("NewObjectStore: %v", err)
				}
				return s, func() backend.Store {
					s2, err := backend.NewObjectStore(fsys, dir)
					if err != nil {
						t.Fatalf("reopen: %v", err)
					}
					return s2
				}
			},
		},
	}
}

// TestConformance runs the one shared semantics suite against every
// implementation.
func TestConformance(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			s, reopen := fx.open(t, nil)
			defer s.Close()
			ctx := context.Background()

			if s.Kind() != fx.kinded {
				t.Fatalf("Kind() = %v, want %v", s.Kind(), fx.kinded)
			}

			// Missing keys.
			if _, err := s.ReadBlock(ctx, "nope"); !errors.Is(err, backend.ErrNotFound) {
				t.Fatalf("ReadBlock(missing) = %v, want ErrNotFound", err)
			}
			if err := s.DeleteBlock(ctx, "nope"); !errors.Is(err, backend.ErrNotFound) {
				t.Fatalf("DeleteBlock(missing) = %v, want ErrNotFound", err)
			}
			if n, err := s.DeleteByPrefix(ctx, "nope"); err != nil || n != 0 {
				t.Fatalf("DeleteByPrefix(missing) = %d, %v; want 0, nil", n, err)
			}

			// Bad keys.
			for _, bad := range []string{"", "/lead", "trail/", "a//b", "..", "a/../b", "sp ace", "per%cent"} {
				if err := s.WriteBlock(ctx, bad, []byte("x")); !errors.Is(err, backend.ErrBadKey) {
					t.Fatalf("WriteBlock(%q) = %v, want ErrBadKey", bad, err)
				}
			}

			// Write, read back, overwrite.
			blob := []byte("hello block world")
			if err := s.WriteBlock(ctx, "t/blk-1", blob); err != nil {
				t.Fatalf("WriteBlock: %v", err)
			}
			got, err := s.ReadBlock(ctx, "t/blk-1")
			if err != nil || !reflect.DeepEqual(got, blob) {
				t.Fatalf("ReadBlock = %q, %v; want %q", got, err, blob)
			}
			blob2 := []byte("replaced")
			if err := s.WriteBlock(ctx, "t/blk-1", blob2); err != nil {
				t.Fatalf("overwrite: %v", err)
			}
			if got, _ := s.ReadBlock(ctx, "t/blk-1"); !reflect.DeepEqual(got, blob2) {
				t.Fatalf("after overwrite = %q, want %q", got, blob2)
			}

			// Ranged reads.
			if got, err := s.ReadBlockRange(ctx, "t/blk-1", 2, 4); err != nil || string(got) != "plac" {
				t.Fatalf("ReadBlockRange = %q, %v; want \"plac\"", got, err)
			}
			if got, err := s.ReadBlockRange(ctx, "t/blk-1", 0, 0); err != nil || len(got) != 0 {
				t.Fatalf("ReadBlockRange(0,0) = %q, %v", got, err)
			}
			if got, err := s.ReadBlockRange(ctx, "t/blk-1", 8, 0); err != nil || len(got) != 0 {
				t.Fatalf("ReadBlockRange(size,0) = %q, %v", got, err)
			}
			for _, r := range [][2]int64{{0, 9}, {9, 1}, {-1, 2}, {1, -1}} {
				if _, err := s.ReadBlockRange(ctx, "t/blk-1", r[0], r[1]); !errors.Is(err, backend.ErrBadRange) {
					t.Fatalf("ReadBlockRange(%d,%d) = %v, want ErrBadRange", r[0], r[1], err)
				}
			}
			if _, err := s.ReadBlockRange(ctx, "missing", 0, 1); !errors.Is(err, backend.ErrNotFound) {
				t.Fatalf("ReadBlockRange(missing) = %v, want ErrNotFound", err)
			}

			// List semantics: sorted, prefix is a plain string prefix.
			for _, k := range []string{"t/blk-2", "t/blk-10", "u/blk-1", "t2"} {
				if err := s.WriteBlock(ctx, k, []byte(k)); err != nil {
					t.Fatalf("WriteBlock(%q): %v", k, err)
				}
			}
			keys, err := s.List(ctx, "t/")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			want := []string{"t/blk-1", "t/blk-10", "t/blk-2"}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("List(t/) = %v, want %v", keys, want)
			}
			keys, _ = s.List(ctx, "t")
			want = []string{"t/blk-1", "t/blk-10", "t/blk-2", "t2"}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("List(t) = %v, want %v", keys, want)
			}
			all, _ := s.List(ctx, "")
			if len(all) != 5 {
				t.Fatalf("List(\"\") = %v, want 5 keys", all)
			}

			// Delete one, delete by prefix.
			if err := s.DeleteBlock(ctx, "t/blk-2"); err != nil {
				t.Fatalf("DeleteBlock: %v", err)
			}
			if _, err := s.ReadBlock(ctx, "t/blk-2"); !errors.Is(err, backend.ErrNotFound) {
				t.Fatalf("read after delete = %v, want ErrNotFound", err)
			}
			n, err := s.DeleteByPrefix(ctx, "t/")
			if err != nil || n != 2 {
				t.Fatalf("DeleteByPrefix(t/) = %d, %v; want 2", n, err)
			}
			keys, _ = s.List(ctx, "")
			want = []string{"t2", "u/blk-1"}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("after prefix delete = %v, want %v", keys, want)
			}

			// Reopen sees the same state (durable kinds only).
			if reopen != nil {
				s2 := reopen()
				keys, err := s2.List(ctx, "")
				if err != nil || !reflect.DeepEqual(keys, want) {
					t.Fatalf("reopen List = %v, %v; want %v", keys, err, want)
				}
				if got, err := s2.ReadBlock(ctx, "u/blk-1"); err != nil || string(got) != "u/blk-1" {
					t.Fatalf("reopen ReadBlock = %q, %v", got, err)
				}
				if err := s2.Close(); err != nil {
					t.Fatalf("close reopened: %v", err)
				}
			}

			// Cancelled contexts stop every operation.
			cctx, cancel := context.WithCancel(context.Background())
			cancel()
			if err := s.WriteBlock(cctx, "c/x", nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("WriteBlock(cancelled) = %v", err)
			}
			if _, err := s.List(cctx, ""); !errors.Is(err, context.Canceled) {
				t.Fatalf("List(cancelled) = %v", err)
			}

			// Closed stores fail everything.
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if err := s.WriteBlock(ctx, "t/x", nil); !errors.Is(err, backend.ErrClosed) {
				t.Fatalf("WriteBlock(closed) = %v, want ErrClosed", err)
			}
			if _, err := s.List(ctx, ""); !errors.Is(err, backend.ErrClosed) {
				t.Fatalf("List(closed) = %v, want ErrClosed", err)
			}
		})
	}
}

// faultFixtures are the durable kinds opened over a FaultFS, for the
// crash-mid-write matrix.
func faultFixtures(t *testing.T, fs *simdisk.FaultFS) map[string]func() backend.Store {
	return map[string]func() backend.Store{
		"filesystem": func() backend.Store {
			s, err := backend.NewFilesystemStore(fs, "blocks")
			if err != nil {
				t.Fatalf("NewFilesystemStore: %v", err)
			}
			return s
		},
		"object": func() backend.Store {
			s, err := backend.NewObjectStore(fs, "bucket")
			if err != nil {
				t.Fatalf("NewObjectStore: %v", err)
			}
			return s
		},
	}
}

// TestCrashMidWriteAtomicity kills the filesystem at every syscall tick
// inside an overwriting WriteBlock, in strict and torn modes, and asserts
// the recovered store holds exactly the old or the new blob — never a
// torn mix, never a temp-file key.
func TestCrashMidWriteAtomicity(t *testing.T) {
	const key = "t/blk-0"
	oldBlob := []byte("old-contents-old-contents-old-contents")
	newBlob := []byte("NEW!NEW!NEW!")
	for _, mode := range []string{"strict", "torn"} {
		for _, kind := range []string{"filesystem", "object"} {
			t.Run(mode+"/"+kind, func(t *testing.T) {
				for n := int64(1); ; n++ {
					fs := simdisk.NewFaultFS()
					open := faultFixtures(t, fs)[kind]
					ctx := context.Background()

					s := open()
					if err := s.WriteBlock(ctx, key, oldBlob); err != nil {
						t.Fatalf("seed write: %v", err)
					}
					fs.CrashAt(n)
					err := s.WriteBlock(ctx, key, newBlob)
					crashed := errors.Is(err, simdisk.ErrCrashed)
					if err != nil && !crashed {
						t.Fatalf("crash %d: unexpected error %v", n, err)
					}
					var rng *rand.Rand
					if mode == "torn" {
						rng = rand.New(rand.NewSource(n))
					}
					fs.Recover(rng)

					s2 := open()
					got, rerr := s2.ReadBlock(ctx, key)
					if rerr != nil {
						t.Fatalf("crash %d: recovered read: %v", n, rerr)
					}
					if !reflect.DeepEqual(got, oldBlob) && !reflect.DeepEqual(got, newBlob) {
						t.Fatalf("crash %d (%s): recovered %q, want old or new\n%s", n, mode, got, fs.DumpTree())
					}
					if crashed && err == nil {
						t.Fatal("unreachable")
					}
					keys, lerr := s2.List(ctx, "")
					if lerr != nil {
						t.Fatalf("crash %d: list: %v", n, lerr)
					}
					if !reflect.DeepEqual(keys, []string{key}) {
						t.Fatalf("crash %d: recovered keys %v, want [%s]", n, keys, key)
					}
					if !crashed {
						// The write ran to completion: it must be the new blob,
						// and the matrix is exhausted.
						if !reflect.DeepEqual(got, newBlob) {
							t.Fatalf("completed write recovered %q, want %q", got, newBlob)
						}
						break
					}
				}
			})
		}
	}
}

// TestKindRoundTrip pins the Kind name set: catalogs persist these.
func TestKindRoundTrip(t *testing.T) {
	for _, k := range []backend.Kind{backend.KindMemory, backend.KindFilesystem, backend.KindObject} {
		got, err := backend.ParseKind(k.String())
		if err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := backend.ParseKind("tape"); err == nil {
		t.Fatal("ParseKind(tape) accepted")
	}
	if backend.Kind(9).Valid() {
		t.Fatal("Kind(9) claims valid")
	}
	_ = fmt.Sprintf("%v", backend.Kind(9))
}

// countingFS counts the files its OpenFile hands out and has not yet seen
// closed, so a test can see every handle a store keeps open. It skips
// fsyncs: the tests it serves never crash, and thousands of writes stay
// fast.
type countingFS struct {
	storage.FS
	open atomic.Int64
}

func (c *countingFS) SyncDir(string) error { return nil }

func (c *countingFS) OpenFile(path string, flag int) (storage.File, error) {
	f, err := c.FS.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	c.open.Add(1)
	return &countedFile{File: f, fs: c}, nil
}

type countedFile struct {
	storage.File
	fs *countingFS
}

func (f *countedFile) Sync() error { return nil }

func (f *countedFile) Close() error {
	f.fs.open.Add(-1)
	return f.File.Close()
}

// readAll reads key through every read shape — ReadBlock, a whole-blob
// ReadBlockRange and a ReadBlockInto of want's size — and fails unless
// each returns want.
func readAll(t *testing.T, s backend.Store, key string, want []byte) {
	t.Helper()
	ctx := context.Background()
	got, err := s.ReadBlock(ctx, key)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadBlock(%q) = %d bytes, %v; want %d bytes", key, len(got), err, len(want))
	}
	got, err = s.ReadBlockRange(ctx, key, 0, int64(len(want)))
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ReadBlockRange(%q) = %d bytes, %v; want %d bytes", key, len(got), err, len(want))
	}
	dst := make([]byte, len(want))
	if n, err := s.ReadBlockInto(ctx, key, dst); err != nil || n != int64(len(want)) || !bytes.Equal(dst, want) {
		t.Fatalf("ReadBlockInto(%q) = %d, %v; want %d bytes", key, n, err, len(want))
	}
}

// TestReadCacheContract pins what the file-backed stores' cached read
// handles must not change, for every kind: a replace or delete is seen by
// the next read, a wrong-sized ReadBlockInto touches nothing, reads of
// many objects keep at most the bound open, and Close leaves nothing
// open.
func TestReadCacheContract(t *testing.T) {
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			fsys := &countingFS{FS: storage.OSFS{}}
			s, _ := fx.open(t, fsys)
			ctx := context.Background()

			// Replace-then-read sees the new blob, growing and shrinking.
			for i, n := range []int{10, 4000, 3, 8192, 0, 17} {
				blob := bytes.Repeat([]byte{byte('a' + i)}, n)
				if err := s.WriteBlock(ctx, "r/blk", blob); err != nil {
					t.Fatal(err)
				}
				readAll(t, s, "r/blk", blob)
			}

			// A wrong-sized ReadBlockInto returns the size and ErrBadRange
			// and leaves the buffer as it was.
			for _, n := range []int{16, 18, 0} {
				dst := bytes.Repeat([]byte{0xEE}, n)
				size, err := s.ReadBlockInto(ctx, "r/blk", dst)
				if !errors.Is(err, backend.ErrBadRange) || size != 17 {
					t.Fatalf("ReadBlockInto(%d-byte dst) = %d, %v; want 17, ErrBadRange", n, size, err)
				}
				if !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, n)) {
					t.Fatalf("ReadBlockInto(%d-byte dst) wrote into its buffer", n)
				}
			}

			// Delete-then-read is ErrNotFound through every shape.
			if err := s.DeleteBlock(ctx, "r/blk"); err != nil {
				t.Fatal(err)
			}
			if _, err := s.ReadBlock(ctx, "r/blk"); !errors.Is(err, backend.ErrNotFound) {
				t.Fatalf("ReadBlock after delete = %v, want ErrNotFound", err)
			}
			if _, err := s.ReadBlockRange(ctx, "r/blk", 0, 1); !errors.Is(err, backend.ErrNotFound) {
				t.Fatalf("ReadBlockRange after delete = %v, want ErrNotFound", err)
			}
			if _, err := s.ReadBlockInto(ctx, "r/blk", make([]byte, 17)); !errors.Is(err, backend.ErrNotFound) {
				t.Fatalf("ReadBlockInto after delete = %v, want ErrNotFound", err)
			}

			// Reading three times the bound of distinct objects keeps at
			// most the bound open.
			for i := 0; i < 3*backend.MaxHandles; i++ {
				key := fmt.Sprintf("b/%05d", i)
				if err := s.WriteBlock(ctx, key, []byte(key)); err != nil {
					t.Fatal(err)
				}
				got, err := s.ReadBlock(ctx, key)
				if err != nil || string(got) != key {
					t.Fatalf("ReadBlock(%q) = %q, %v", key, got, err)
				}
				if open := fsys.open.Load(); open > backend.MaxHandles {
					t.Fatalf("%d handles open after %d objects read, bound %d", open, i+1, backend.MaxHandles)
				}
			}

			// Close leaves no handle open, and every read after it is
			// ErrClosed.
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if open := fsys.open.Load(); open != 0 {
				t.Fatalf("%d handles open after Close", open)
			}
			if _, err := s.ReadBlock(ctx, "b/00000"); !errors.Is(err, backend.ErrClosed) {
				t.Fatalf("ReadBlock after Close = %v, want ErrClosed", err)
			}
			if _, err := s.ReadBlockRange(ctx, "b/00000", 0, 1); !errors.Is(err, backend.ErrClosed) {
				t.Fatalf("ReadBlockRange after Close = %v, want ErrClosed", err)
			}
			if _, err := s.ReadBlockInto(ctx, "b/00000", make([]byte, 7)); !errors.Is(err, backend.ErrClosed) {
				t.Fatalf("ReadBlockInto after Close = %v, want ErrClosed", err)
			}
		})
	}
}

// TestConcurrentReplaceReadsOldOrNew: while a writer swaps one key between
// a 10-byte and a 4000-byte blob, every read returns one of the two whole,
// never a prefix of one sized as the other.
func TestConcurrentReplaceReadsOldOrNew(t *testing.T) {
	short := bytes.Repeat([]byte{'s'}, 10)
	long := bytes.Repeat([]byte{'L'}, 4000)
	const key = "swap/blk"
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			s, _ := fx.open(t, nil)
			defer s.Close()
			ctx := context.Background()
			if err := s.WriteBlock(ctx, key, short); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			writerErr := make(chan error, 1)
			go func() {
				for i := 0; ; i++ {
					select {
					case <-done:
						writerErr <- nil
						return
					default:
					}
					blob := long
					if i%2 == 1 {
						blob = short
					}
					if err := s.WriteBlock(ctx, key, blob); err != nil {
						writerErr <- err
						return
					}
				}
			}()
			var wg sync.WaitGroup
			var torn atomic.Int64
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					dst := make([]byte, len(long))
					for i := 0; i < 2000; i++ {
						if got, err := s.ReadBlock(ctx, key); err != nil || !(bytes.Equal(got, short) || bytes.Equal(got, long)) {
							torn.Add(1)
							t.Errorf("ReadBlock = %d bytes %.12q, %v; want the short or the long blob", len(got), got, err)
						}
						got, err := s.ReadBlockRange(ctx, key, 0, int64(len(long)))
						if !(err == nil && bytes.Equal(got, long)) && !errors.Is(err, backend.ErrBadRange) {
							torn.Add(1)
							t.Errorf("ReadBlockRange = %d bytes, %v; want the long blob or ErrBadRange", len(got), err)
						}
						size, err := s.ReadBlockInto(ctx, key, dst)
						if !(err == nil && bytes.Equal(dst, long)) && !(errors.Is(err, backend.ErrBadRange) && size == int64(len(short))) {
							torn.Add(1)
							t.Errorf("ReadBlockInto = %d, %v; want the long blob or the short blob's size", size, err)
						}
						if torn.Load() > 5 {
							return
						}
					}
				}()
			}
			wg.Wait()
			close(done)
			if err := <-writerErr; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestReadCacheStress runs readers of every shape against a writer per
// key and a deleter over a few keys: every read is exactly one blob ever
// written under its key, or ErrNotFound. scripts/check.sh runs it under
// -race, repeated.
func TestReadCacheStress(t *testing.T) {
	keys := []string{"st/a", "st/b", "st/c"}
	sizes := []int{16, 600, 4096}
	for _, fx := range fixtures() {
		t.Run(fx.name, func(t *testing.T) {
			s, _ := fx.open(t, nil)
			defer s.Close()
			ctx := context.Background()

			var mu sync.Mutex
			written := make(map[string]map[string]bool, len(keys))
			for _, k := range keys {
				written[k] = make(map[string]bool)
			}
			// wasWritten reports whether blob is one written under key
			// whose first n bytes equal got (n = len(got)).
			wasWritten := func(key string, got []byte, whole bool) bool {
				mu.Lock()
				defer mu.Unlock()
				for b := range written[key] {
					if whole && b == string(got) || !whole && len(b) >= len(got) && b[:len(got)] == string(got) {
						return true
					}
				}
				return false
			}
			sizeWritten := func(key string, size int64) bool {
				mu.Lock()
				defer mu.Unlock()
				for b := range written[key] {
					if int64(len(b)) == size {
						return true
					}
				}
				return false
			}

			var reads atomic.Int64
			var writers sync.WaitGroup
			stop := make(chan struct{})
			errs := make(chan error, len(keys)+1) // one per writer, one for the deleter
			for w, key := range keys {
				writers.Add(1)
				go func() {
					defer writers.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					for seq := 0; seq < 60; seq++ {
						// Pace the writes to the readers, so reads run
						// between them even when a write takes no time
						// (the memory kind) or the readers start late.
						for reads.Load() <= int64(seq) {
							runtime.Gosched()
						}
						// Every blob is unique: its stamp repeats to one
						// of the sizes the readers ask for.
						stamp := fmt.Sprintf("%s#%d|", key, seq)
						n := sizes[rng.Intn(len(sizes))]
						blob := bytes.Repeat([]byte(stamp), n/len(stamp)+1)[:n]
						mu.Lock()
						written[key][string(blob)] = true
						mu.Unlock()
						if err := s.WriteBlock(ctx, key, blob); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			var deleter sync.WaitGroup
			deleter.Add(1)
			go func() {
				defer deleter.Done()
				rng := rand.New(rand.NewSource(99))
				for {
					select {
					case <-stop:
						return
					default:
					}
					err := s.DeleteBlock(ctx, keys[rng.Intn(len(keys))])
					if err != nil && !errors.Is(err, backend.ErrNotFound) {
						errs <- err
						return
					}
				}
			}()

			var readers sync.WaitGroup
			for r := 0; r < 3; r++ {
				readers.Add(1)
				go func() {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						key := keys[rng.Intn(len(keys))]
						n := sizes[rng.Intn(len(sizes))]
						var err error
						switch rng.Intn(3) {
						case 0:
							var got []byte
							if got, err = s.ReadBlock(ctx, key); err == nil && !wasWritten(key, got, true) {
								t.Errorf("ReadBlock(%q) = %d bytes %.20q: never written", key, len(got), got)
							}
						case 1:
							var got []byte
							if got, err = s.ReadBlockRange(ctx, key, 0, int64(n)); err == nil && !wasWritten(key, got, false) {
								t.Errorf("ReadBlockRange(%q, 0, %d) = %.20q: no written blob starts so", key, n, got)
							}
							if errors.Is(err, backend.ErrBadRange) {
								err = nil
							}
						case 2:
							dst := bytes.Repeat([]byte{0xEE}, n)
							var size int64
							size, err = s.ReadBlockInto(ctx, key, dst)
							switch {
							case err == nil && !wasWritten(key, dst, true):
								t.Errorf("ReadBlockInto(%q) = %d bytes %.20q: never written", key, size, dst)
							case errors.Is(err, backend.ErrBadRange):
								if !sizeWritten(key, size) || !bytes.Equal(dst, bytes.Repeat([]byte{0xEE}, len(dst))) {
									t.Errorf("ReadBlockInto(%q) = size %d, ErrBadRange: no blob of that size, or the buffer was written", key, size)
								}
								err = nil
							}
						}
						if err != nil && !errors.Is(err, backend.ErrNotFound) {
							t.Errorf("read %q: %v", key, err)
						}
						reads.Add(1)
					}
				}()
			}

			writers.Wait()
			close(stop)
			deleter.Wait()
			readers.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			if reads.Load() == 0 {
				t.Fatal("no reads ran beside the writers")
			}
		})
	}
}
