package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"syscall"
	"testing"

	"repro/internal/simdisk"
	"repro/internal/storage"
)

// readFaultFS counts ReadAt calls across every file it opens and fails the
// fail-th one (counting from 1) with EIO; fail = 0 only counts. It wraps
// the FaultFS rather than arming it, so the crash matrices' op ticks do
// not move.
type readFaultFS struct {
	storage.FS
	fail, reads int
}

func (fs *readFaultFS) OpenFile(path string, flag int) (storage.File, error) {
	f, err := fs.FS.OpenFile(path, flag)
	if err != nil {
		return nil, err
	}
	return readFaultFile{f, fs}, nil
}

type readFaultFile struct {
	storage.File
	fs *readFaultFS
}

func (f readFaultFile) ReadAt(p []byte, off int64) (int, error) {
	f.fs.reads++
	if f.fs.reads == f.fs.fail {
		return 0, syscall.EIO
	}
	return f.File.ReadAt(p, off)
}

// TestOpenReadErrorKeepsRecords: a read that fails during recovery is not
// a torn tail. Failing any one of Open's reads must fail Open and leave
// the log as it was, so a clean reopen still recovers every committed
// record rather than a segment cut at the failed read.
func TestOpenReadErrorKeepsRecords(t *testing.T) {
	fs := simdisk.NewFaultFS()
	l := mustCreate(t, fs, 1)
	for i := range 10 {
		appendCommit(t, l, fmt.Sprintf("rec-%d", i))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reopen := func(what string) {
		t.Helper()
		l, records, err := Open(Options{FS: fs, Dir: testDir}, 1)
		if err != nil {
			t.Fatalf("%s: clean reopen: %v", what, err)
		}
		if len(records) != 10 {
			t.Fatalf("%s: clean reopen recovered %d records, want 10", what, len(records))
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}
	counter := &readFaultFS{FS: fs}
	l, _, err := Open(Options{FS: counter, Dir: testDir}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	reads := counter.reads
	if reads < 3 {
		t.Fatalf("Open made %d reads; expected a header, frame and payload read at least", reads)
	}
	for k := 1; k <= reads; k++ {
		l, _, err := Open(Options{FS: &readFaultFS{FS: fs, fail: k}, Dir: testDir}, 1)
		if err == nil {
			if cerr := l.Close(); cerr != nil {
				t.Fatal(cerr)
			}
			t.Errorf("read %d of %d failed, yet Open succeeded", k, reads)
		} else if !errors.Is(err, syscall.EIO) {
			t.Errorf("read %d of %d failed: Open = %v, want it to wrap EIO", k, reads, err)
		}
		reopen(fmt.Sprintf("after failing read %d of %d", k, reads))
	}
}

// FuzzOpenSegment puts arbitrary bytes after a valid segment header.
// Whatever they are, Open must not panic; every record it returns must be
// the CRC-valid frame at its position in the segment; and the recovered
// prefix must round-trip: a record appended after recovery reopens behind
// exactly that prefix.
func FuzzOpenSegment(f *testing.F) {
	frame := func(payload string) []byte {
		b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE([]byte(payload)))
		return append(b, payload...)
	}
	clean := slices.Concat(frame("alpha"), frame("beta"), frame("gamma"))
	f.Add([]byte{})
	f.Add(clean)
	f.Add(slices.Concat(clean, make([]byte, 8)))    // zeroed tail
	f.Add(slices.Concat(clean, frame("delta")[:6])) // torn frame header
	f.Add(slices.Clone(clean[:len(clean)-2]))       // torn payload
	bad := frame("beta")
	bad[4] ^= 1
	f.Add(slices.Concat(frame("alpha"), bad, frame("gamma"))) // CRC mismatch mid-segment
	f.Add(binary.LittleEndian.AppendUint32(nil, MaxRecordLen+1))
	f.Fuzz(func(t *testing.T, body []byte) {
		fs := simdisk.NewFaultFS()
		l := mustCreate(t, fs, 1)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(testDir, segName(1, 0))
		seg, err := fs.OpenFile(path, os.O_RDWR)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := seg.WriteAt(body, segHeaderLen); err != nil {
			t.Fatal(err)
		}
		if err := errors.Join(seg.Sync(), seg.Close()); err != nil {
			t.Fatal(err)
		}

		l, records, err := Open(Options{FS: fs, Dir: testDir}, 1)
		if err != nil {
			return // refused whole; nothing was recovered to check
		}
		off := 0
		for i, r := range records {
			if off+frameOverhead > len(body) {
				t.Fatalf("record %d starts past the segment's bytes", i)
			}
			plen := int(binary.LittleEndian.Uint32(body[off:]))
			sum := binary.LittleEndian.Uint32(body[off+4:])
			if plen != len(r.Payload) || off+frameOverhead+plen > len(body) ||
				!bytes.Equal(body[off+frameOverhead:off+frameOverhead+plen], r.Payload) ||
				crc32.ChecksumIEEE(r.Payload) != sum {
				t.Fatalf("record %d (%q) is not the CRC-valid frame at byte %d", i, r.Payload, off)
			}
			if r.LSN != uint64(i+1) {
				t.Fatalf("record %d has LSN %d", i, r.LSN)
			}
			off += frameOverhead + plen
		}
		appendCommit(t, l, "after")
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l, again, err := Open(Options{FS: fs, Dir: testDir}, 1)
		if err != nil {
			t.Fatalf("reopen after recovery: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if len(again) != len(records)+1 || string(again[len(records)].Payload) != "after" {
			t.Fatalf("reopen recovered %d records, want the %d recovered plus the one appended", len(again), len(records))
		}
		for i, r := range records {
			if !bytes.Equal(again[i].Payload, r.Payload) {
				t.Fatalf("record %d changed across reopen: %q -> %q", i, r.Payload, again[i].Payload)
			}
		}
	})
}
