// Package wal implements a segmented, CRC-framed write-ahead log with
// fsync'd group commit. It is the durability half of the table write path:
// the table appends a logical record describing each mutation before
// applying it, a commit waits until the record is on stable storage, and
// table.Open replays the surviving records on top of the last durable
// checkpoint.
//
// # Segments
//
// A log is a directory of segment files named seg-<baseGen>-<seq>.wal.
// baseGen is the catalog generation the segment's records apply on top of:
// recovery replays only segments whose baseGen equals the generation of
// the durable catalog it restored, and deletes the rest (their effects are
// already folded into a newer catalog, or they belong to a checkpoint that
// never became durable — impossible by the commit ordering, but deleted
// defensively). Within a generation, segments replay in seq order.
//
// # Records
//
// Each record is framed as
//
//	[payload length: u32 LE][CRC32(IEEE) of payload: u32 LE][payload]
//
// and payloads are opaque to this package. A frame that fails its CRC, is
// implausibly long, or runs past end-of-file marks the end of the durable
// log when it occurs in the final segment (a torn tail from a crash mid-
// append: those records were never acknowledged). The same damage in any
// earlier segment is reported as corruption, because rotation fsyncs a
// segment before opening its successor — earlier segments hold only
// acknowledged records.
//
// # Group commit
//
// Append buffers the record with a positional write and returns its LSN
// without syncing. Commit(lsn) blocks until the log is durable through
// lsn: the first committer becomes the leader and issues one Sync for
// every record appended so far; committers that arrive while the leader is
// in the kernel wait and are usually satisfied by the leader's sync or
// batched into the next one. Concurrent writers therefore share fsyncs —
// the wal.group_size histogram records how many commits each fsync
// retired.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/obs"
	"repro/internal/storage"
)

const (
	segMagic      = "AVQWAL1\n"
	segHeaderLen  = 24 // magic[8] baseGen[8] seq[4] crc[4]
	frameOverhead = 8  // len[4] crc[4]

	// DefaultSegmentSize is the rotation threshold.
	DefaultSegmentSize = 1 << 20

	// MaxRecordLen bounds a single record payload; a frame claiming more
	// is treated as log damage, never allocated.
	MaxRecordLen = 16 << 20
)

// ErrCorrupt reports CRC or framing damage in a segment that rotation had
// already made durable — data loss, not a benign torn tail.
var ErrCorrupt = errors.New("wal: corrupt record in synced segment")

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Options configures a log.
type Options struct {
	// FS is the filesystem; nil means the real one.
	FS storage.FS
	// Dir is the log directory.
	Dir string
	// SegmentSize is the rotation threshold in bytes (DefaultSegmentSize
	// when zero).
	SegmentSize int64
	// Obs receives wal.* instruments; nil disables.
	Obs *obs.Registry
}

func (o *Options) fill() {
	if o.FS == nil {
		o.FS = storage.OSFS{}
	}
	if o.SegmentSize <= 0 {
		o.SegmentSize = DefaultSegmentSize
	}
}

// Record is one recovered log record.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Log is a write-ahead log open for appending. Safe for concurrent use.
type Log struct {
	fs      storage.FS
	dir     string
	segSize int64

	mu       sync.Mutex
	cond     *sync.Cond
	f        storage.File
	baseGen  uint64
	segSeq   uint32
	writeOff int64
	appended uint64 // LSN of the newest buffered record
	durable  uint64 // LSN through which the log is fsynced
	syncing  bool   // a group-commit leader is inside Sync
	sticky   error  // first fatal I/O error; poisons the log
	closed   bool

	appends   *obs.Counter
	fsyncs    *obs.Counter
	bytes     *obs.Counter
	rotations *obs.Counter
	groupSize *obs.Histogram
}

func newLog(o Options) *Log {
	l := &Log{
		fs:      o.FS,
		dir:     o.Dir,
		segSize: o.SegmentSize,

		appends:   o.Obs.Counter("wal.appends"),
		fsyncs:    o.Obs.Counter("wal.fsyncs"),
		bytes:     o.Obs.Counter("wal.bytes"),
		rotations: o.Obs.Counter("wal.rotations"),
		groupSize: o.Obs.Histogram("wal.group_size"),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

func segName(baseGen uint64, seq uint32) string {
	return fmt.Sprintf("seg-%016x-%08x.wal", baseGen, seq)
}

// IsSegmentName reports whether name is a well-formed log segment file
// name; callers use it to detect an existing log directory.
func IsSegmentName(name string) bool {
	_, _, ok := parseSegName(name)
	return ok
}

func parseSegName(name string) (baseGen uint64, seq uint32, ok bool) {
	var g uint64
	var s uint32
	n, err := fmt.Sscanf(name, "seg-%16x-%8x.wal", &g, &s)
	if err != nil || n != 2 {
		return 0, 0, false
	}
	if name != segName(g, s) {
		return 0, 0, false
	}
	return g, s, true
}

// Create initialises an empty log directory for a table whose durable
// catalog is at generation baseGen, deleting any stale segments already
// present. The directory entry and first segment are durable on return.
func Create(o Options, baseGen uint64) (*Log, error) {
	o.fill()
	if err := o.FS.MkdirAll(o.Dir); err != nil {
		return nil, fmt.Errorf("wal: mkdir %s: %w", o.Dir, err)
	}
	names, err := o.FS.ReadDir(o.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: list %s: %w", o.Dir, err)
	}
	for _, name := range names {
		if _, _, ok := parseSegName(name); ok {
			if err := o.FS.Remove(filepath.Join(o.Dir, name)); err != nil {
				return nil, fmt.Errorf("wal: remove stale %s: %w", name, err)
			}
		}
	}
	l := newLog(o)
	l.baseGen = baseGen
	if err := l.openSegment(baseGen, 0); err != nil {
		return nil, err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return nil, err
	}
	return l, nil
}

// openSegment creates segment (baseGen, seq), writes and fsyncs its
// header, and makes it the append target. Caller holds l.mu or has
// exclusive access.
func (l *Log) openSegment(baseGen uint64, seq uint32) error {
	path := filepath.Join(l.dir, segName(baseGen, seq))
	f, err := l.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC)
	if err != nil {
		return fmt.Errorf("wal: create segment %s: %w", path, err)
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic)
	binary.LittleEndian.PutUint64(hdr[8:16], baseGen)
	binary.LittleEndian.PutUint32(hdr[16:20], seq)
	binary.LittleEndian.PutUint32(hdr[20:24], crc32.ChecksumIEEE(hdr[:20]))
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("wal: write segment header %s: %w", path, errors.Join(err, f.Close()))
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("wal: sync segment header %s: %w", path, errors.Join(err, f.Close()))
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil {
			return fmt.Errorf("wal: close previous segment: %w", errors.Join(err, f.Close()))
		}
	}
	l.f = f
	l.baseGen = baseGen
	l.segSeq = seq
	l.writeOff = segHeaderLen
	return nil
}

// Append buffers one record and returns its LSN. The record is NOT
// durable until Commit(lsn) (or a later commit) returns.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordLen {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecordLen)
	}
	if len(payload) == 0 {
		// An empty frame is byte-identical to zeroed disk (len 0, CRC 0),
		// so recovery could not tell a real record from torn-write debris.
		return 0, errors.New("wal: empty record")
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return 0, err
	}
	for l.writeOff >= l.segSize {
		if l.syncing {
			// A commit leader is fsyncing the segment we want to retire;
			// rotation would close its file handle out from under it.
			l.cond.Wait()
			if err := l.usable(); err != nil {
				return 0, err
			}
			continue
		}
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	frame := make([]byte, frameOverhead+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameOverhead:], payload)
	if _, err := l.f.WriteAt(frame, l.writeOff); err != nil {
		l.sticky = fmt.Errorf("wal: append: %w", err)
		l.cond.Broadcast()
		return 0, l.sticky
	}
	l.writeOff += int64(len(frame))
	l.appended++
	l.appends.Inc()
	l.bytes.Add(int64(len(frame)))
	return l.appended, nil
}

// rotateLocked fsyncs the current segment (so every earlier record is
// durable — the invariant recovery relies on to distinguish torn tails
// from corruption) and opens the next one in the same generation.
func (l *Log) rotateLocked() error {
	if err := l.f.Sync(); err != nil {
		l.sticky = fmt.Errorf("wal: sync before rotate: %w", err)
		l.cond.Broadcast()
		return l.sticky
	}
	l.fsyncs.Inc()
	if l.appended > l.durable {
		l.groupSize.ObserveValue(int64(l.appended - l.durable))
		l.durable = l.appended
		l.cond.Broadcast()
	}
	if err := l.openSegment(l.baseGen, l.segSeq+1); err != nil {
		l.sticky = err
		l.cond.Broadcast()
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		l.sticky = err
		l.cond.Broadcast()
		return err
	}
	l.rotations.Inc()
	return nil
}

// Commit blocks until the log is durable through lsn. Concurrent callers
// elect one leader per fsync; the rest ride along (group commit).
func (l *Log) Commit(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.durable < lsn {
		if err := l.usable(); err != nil {
			return err
		}
		if l.syncing {
			l.cond.Wait()
			continue
		}
		// Leader: sync everything appended so far on behalf of every
		// waiter that arrived before the syscall was issued.
		l.syncing = true
		syncTo := l.appended
		f := l.f
		l.mu.Unlock()
		err := f.Sync()
		l.mu.Lock()
		l.syncing = false
		if err != nil {
			if l.sticky == nil {
				l.sticky = fmt.Errorf("wal: commit sync: %w", err)
			}
			l.cond.Broadcast()
			return l.sticky
		}
		l.fsyncs.Inc()
		// Only advance if a rotation didn't already cover syncTo while we
		// were in the kernel (rotation holds the lock, so syncTo records
		// appended to the segment f pointed at).
		if syncTo > l.durable {
			l.groupSize.ObserveValue(int64(syncTo - l.durable))
			l.durable = syncTo
		}
		l.cond.Broadcast()
	}
	return nil
}

// AppendCommit appends one record and waits for it to be durable.
func (l *Log) AppendCommit(payload []byte) (uint64, error) {
	lsn, err := l.Append(payload)
	if err != nil {
		return 0, err
	}
	return lsn, l.Commit(lsn)
}

func (l *Log) usable() error {
	if l.closed {
		return ErrClosed
	}
	return l.sticky
}

// Durable returns the LSN through which the log is known durable.
func (l *Log) Durable() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// Appended returns the LSN of the newest buffered record.
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.appended
}

// BaseGen returns the catalog generation the current segment applies to.
func (l *Log) BaseGen() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.baseGen
}

// Rotate is checkpoint truncation: after the caller has durably published
// a catalog at generation newGen (folding every logged record into it),
// Rotate opens a fresh segment with baseGen = newGen and deletes all
// segments of earlier generations. If a crash interleaves anywhere,
// recovery still lands on a correct state: the durable catalog either
// predates newGen (old segments still replay onto it) or is newGen (old
// segments are ignored and re-deleted).
func (l *Log) Rotate(newGen uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usable(); err != nil {
		return err
	}
	for l.syncing {
		// A commit leader is mid-fsync on the segment we are about to
		// retire; let it finish so its waiters observe a coherent durable
		// LSN before the generation advances.
		l.cond.Wait()
		if err := l.usable(); err != nil {
			return err
		}
	}
	if err := l.openSegment(newGen, 0); err != nil {
		l.sticky = err
		l.cond.Broadcast()
		return err
	}
	// Records of earlier generations are folded into the newGen catalog;
	// every LSN handed out so far is therefore durable.
	if l.appended > l.durable {
		l.groupSize.ObserveValue(int64(l.appended - l.durable))
		l.durable = l.appended
		l.cond.Broadcast()
	}
	names, err := l.fs.ReadDir(l.dir)
	if err != nil {
		l.sticky = fmt.Errorf("wal: list %s: %w", l.dir, err)
		return l.sticky
	}
	for _, name := range names {
		g, _, ok := parseSegName(name)
		if !ok || g == newGen {
			continue
		}
		if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
			l.sticky = fmt.Errorf("wal: remove retired %s: %w", name, err)
			return l.sticky
		}
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		l.sticky = err
		return l.sticky
	}
	l.rotations.Inc()
	return nil
}

// Close fsyncs buffered records and closes the segment. The log directory
// is left in place for the next Open.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for l.syncing {
		// Let the in-flight commit leader finish with the file handle.
		l.cond.Wait()
	}
	if l.closed {
		return nil
	}
	l.closed = true
	var firstErr error
	if l.sticky == nil && l.f != nil && l.appended > l.durable {
		if err := l.f.Sync(); err != nil {
			firstErr = fmt.Errorf("wal: sync on close: %w", err)
		} else {
			l.fsyncs.Inc()
			l.durable = l.appended
		}
	}
	if l.f != nil {
		if err := l.f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("wal: close segment: %w", err)
		}
		l.f = nil
	}
	l.cond.Broadcast()
	return firstErr
}

// Open recovers the log in dir against a durable catalog at generation
// catalogGen. It deletes segments of other generations, scans the
// matching ones in seq order, and returns every intact record for the
// caller to replay. A torn tail in the final segment is truncated away;
// the returned log is positioned to append after the last intact record.
func Open(o Options, catalogGen uint64) (*Log, []Record, error) {
	o.fill()
	if err := o.FS.MkdirAll(o.Dir); err != nil {
		return nil, nil, fmt.Errorf("wal: mkdir %s: %w", o.Dir, err)
	}
	names, err := o.FS.ReadDir(o.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: list %s: %w", o.Dir, err)
	}
	type seg struct {
		name string
		seq  uint32
	}
	var match []seg
	var stale []string
	for _, name := range names {
		g, s, ok := parseSegName(name)
		if !ok {
			continue
		}
		if g == catalogGen {
			match = append(match, seg{name, s})
		} else {
			stale = append(stale, name)
		}
	}
	for _, name := range stale {
		if err := o.FS.Remove(filepath.Join(o.Dir, name)); err != nil {
			return nil, nil, fmt.Errorf("wal: remove stale %s: %w", name, err)
		}
	}
	if len(stale) > 0 {
		if err := o.FS.SyncDir(o.Dir); err != nil {
			return nil, nil, err
		}
	}
	sort.Slice(match, func(i, j int) bool { return match[i].seq < match[j].seq })

	l := newLog(o)
	l.baseGen = catalogGen
	var records []Record
	if len(match) == 0 {
		// No surviving segment for this generation (first WAL open of a
		// legacy table, or a crash before Rotate's new segment became
		// durable). Start fresh.
		if err := o.FS.MkdirAll(o.Dir); err != nil {
			return nil, nil, fmt.Errorf("wal: mkdir %s: %w", o.Dir, err)
		}
		if err := l.openSegment(catalogGen, 0); err != nil {
			return nil, nil, err
		}
		if err := o.FS.SyncDir(o.Dir); err != nil {
			return nil, nil, err
		}
		return l, nil, nil
	}
	for i, s := range match {
		last := i == len(match)-1
		path := filepath.Join(o.Dir, s.name)
		f, err := o.FS.OpenFile(path, os.O_RDWR)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: open segment %s: %w", path, err)
		}
		recs, end, damaged, headerOK, err := scanSegment(f, s.seq, catalogGen)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: read segment %s: %w", path, errors.Join(err, f.Close()))
		}
		if damaged && !last {
			return nil, nil, errors.Join(fmt.Errorf("%w: %s at byte %d", ErrCorrupt, s.name, end), f.Close())
		}
		for _, p := range recs {
			l.appended++
			records = append(records, Record{LSN: l.appended, Payload: p})
		}
		switch {
		case last && !headerOK:
			// The final segment's own header never became durable (crash
			// during rotation). It holds no records; recreate it cleanly.
			if err := f.Close(); err != nil {
				return nil, nil, fmt.Errorf("wal: close segment %s: %w", path, err)
			}
			if err := o.FS.Remove(path); err != nil {
				return nil, nil, fmt.Errorf("wal: remove damaged %s: %w", path, err)
			}
			if err := l.openSegment(catalogGen, s.seq); err != nil {
				return nil, nil, err
			}
			if err := o.FS.SyncDir(o.Dir); err != nil {
				return nil, nil, err
			}
		case last:
			// Cut any torn tail so future appends start on a clean edge.
			if err := f.Truncate(end); err != nil {
				return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, errors.Join(err, f.Close()))
			}
			if err := f.Sync(); err != nil {
				return nil, nil, fmt.Errorf("wal: sync %s: %w", path, errors.Join(err, f.Close()))
			}
			l.f = f
			l.segSeq = s.seq
			l.writeOff = end
		default:
			if err := f.Close(); err != nil {
				return nil, nil, fmt.Errorf("wal: close segment %s: %w", path, err)
			}
		}
	}
	l.durable = l.appended
	return l, records, nil
}

// scanSegment validates the header and walks frames until end-of-file or
// damage. It returns the intact payloads, the byte offset just past the
// last intact record, whether trailing damage was found, and whether the
// segment header itself was intact. Only a read cut short by end-of-file
// is damage; any other read error is returned, because cutting the
// segment at a read that failed would delete acknowledged records.
func scanSegment(f storage.File, wantSeq uint32, wantGen uint64) (payloads [][]byte, end int64, damaged, headerOK bool, err error) {
	var hdr [segHeaderLen]byte
	n, err := readAt(f, hdr[:], 0)
	if err != nil {
		return nil, 0, false, false, err
	}
	if n < segHeaderLen ||
		string(hdr[:8]) != segMagic ||
		crc32.ChecksumIEEE(hdr[:20]) != binary.LittleEndian.Uint32(hdr[20:24]) ||
		binary.LittleEndian.Uint64(hdr[8:16]) != wantGen ||
		binary.LittleEndian.Uint32(hdr[16:20]) != wantSeq {
		// A header that never fully hit disk: the segment is as good as
		// absent. Only acceptable where a torn tail is (the caller
		// rejects damage in non-final segments).
		return nil, 0, true, false, nil
	}
	off := int64(segHeaderLen)
	var frameHdr [frameOverhead]byte
	for {
		n, err := readAt(f, frameHdr[:], off)
		if err != nil {
			return nil, 0, false, false, err
		}
		if n == 0 {
			return payloads, off, false, true, nil // clean end
		}
		if n < frameOverhead {
			return payloads, off, true, true, nil // torn frame header
		}
		plen := binary.LittleEndian.Uint32(frameHdr[0:4])
		if plen == 0 || plen > MaxRecordLen {
			// Append rejects empty payloads, so a zero frame is zeroed
			// disk (its CRC of nothing even matches), not a record.
			return payloads, off, true, true, nil // implausible length
		}
		payload := make([]byte, plen)
		pn, err := readAt(f, payload, off+frameOverhead)
		if err != nil {
			return nil, 0, false, false, err
		}
		if pn < int(plen) {
			return payloads, off, true, true, nil // torn payload
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(frameHdr[4:8]) {
			return payloads, off, true, true, nil // CRC mismatch
		}
		payloads = append(payloads, payload)
		off += frameOverhead + int64(plen)
	}
}

// readAt is f.ReadAt with end-of-file folded into the short count it
// explains; every other error is the caller's.
func readAt(f storage.File, p []byte, off int64) (int, error) {
	n, err := f.ReadAt(p, off)
	if err == io.EOF {
		err = nil
	}
	return n, err
}
