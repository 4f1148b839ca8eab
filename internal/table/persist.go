package table

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Persistent tables are crash consistent to the last Checkpoint through
// three mechanisms:
//
//  1. Block rewrites are copy-on-write (blockstore): a page referenced by
//     a durable catalog is never overwritten in place.
//  2. Freed pages are only reused after the next catalog commit
//     (FilePager deferred free), so "old" pages survive until no durable
//     catalog references them.
//  3. The catalog itself is dual-slot (ping-pong): checkpoints alternate
//     between two chains headed at pages 0 and 1, each carrying a
//     generation number and a CRC. Open picks the valid chain with the
//     highest generation, so a crash while writing one catalog leaves the
//     previous one intact.
//
// The catalog blob is:
//
//	magic "AVQCAT2\n" | generation uvarint | codec (1) | reserved (1)
//	| tuple count uvarint
//	| schema blob (length-prefixed relation.AppendBinary)
//	| secondary attr count uvarint + attrs
//	| block count uvarint + block page ids
//	| crc32 (4, over everything before it)
//
// The reserved byte once named the secondary-index backend (B+ tree or
// extendible hash); it is written 0 and ignored on read, so files from
// before the hash backend was removed still open. Varints are canonical
// (minimal length) and nothing may follow the block list, so a blob that
// parses re-serializes to the same bytes.
//
// Each catalog page is framed as:
//
//	next page id (4, InvalidPage at the tail) | chunk length (4) | chunk
//
// Mutations between checkpoints are volatile: a crash rolls the table back
// to the last Checkpoint (or Close). There is no write-ahead log; that is
// the documented durability contract.

var catalogMagic = []byte("AVQCAT2\n")

// catalogFrameOverhead is the per-page framing: next pointer and chunk length.
const catalogFrameOverhead = 8

// ErrClosed is returned by operations on a closed table.
var ErrClosed = errors.New("table: closed")

// catalogBlob serializes the table's metadata at the given generation.
func (t *Table) catalogBlob(generation uint64) []byte {
	return (&catalogMeta{
		generation: generation,
		codec:      byte(t.opts.Codec),
		size:       t.size,
		schema:     t.schema,
		secondary:  t.opts.SecondaryAttrs,
		blocks:     t.store.Blocks(),
	}).appendBinary()
}

// catalogMeta is the parsed catalog.
type catalogMeta struct {
	generation uint64
	codec      byte
	size       int
	schema     *relation.Schema
	secondary  []int
	blocks     []storage.PageID
}

// appendBinary serializes the catalog in the format parseCatalog reads.
func (m *catalogMeta) appendBinary() []byte {
	blob := append([]byte(nil), catalogMagic...)
	blob = binary.AppendUvarint(blob, m.generation)
	blob = append(blob, m.codec, 0)
	blob = binary.AppendUvarint(blob, uint64(m.size))
	schemaBlob := m.schema.AppendBinary(nil)
	blob = binary.AppendUvarint(blob, uint64(len(schemaBlob)))
	blob = append(blob, schemaBlob...)
	blob = binary.AppendUvarint(blob, uint64(len(m.secondary)))
	for _, a := range m.secondary {
		blob = binary.AppendUvarint(blob, uint64(a))
	}
	blob = binary.AppendUvarint(blob, uint64(len(m.blocks)))
	for _, id := range m.blocks {
		blob = binary.AppendUvarint(blob, uint64(id))
	}
	sum := crc32.ChecksumIEEE(blob)
	return binary.BigEndian.AppendUint32(blob, sum)
}

// parseCatalog decodes and verifies a catalog blob.
func parseCatalog(blob []byte) (*catalogMeta, error) {
	if len(blob) < len(catalogMagic)+4 {
		return nil, errors.New("table: catalog truncated")
	}
	for i, b := range catalogMagic {
		if blob[i] != b {
			return nil, errors.New("table: not a table catalog")
		}
	}
	body := blob[:len(blob)-4]
	want := binary.BigEndian.Uint32(blob[len(blob)-4:])
	if got := crc32.ChecksumIEEE(body); got != want {
		return nil, fmt.Errorf("table: catalog checksum mismatch: %08x != %08x", got, want)
	}
	pos := len(catalogMagic)
	meta := &catalogMeta{}
	readUv := func() (uint64, error) {
		v, n := binary.Uvarint(body[pos:])
		if n <= 0 {
			return 0, errors.New("table: catalog truncated")
		}
		if n > 1 && body[pos+n-1] == 0 {
			return 0, errors.New("table: catalog varint is not minimal")
		}
		pos += n
		return v, nil
	}
	gen, err := readUv()
	if err != nil {
		return nil, err
	}
	meta.generation = gen
	if pos+2 > len(body) {
		return nil, errors.New("table: catalog truncated")
	}
	meta.codec = body[pos] // body[pos+1] is the reserved byte
	pos += 2
	size, err := readUv()
	if err != nil {
		return nil, err
	}
	meta.size = int(size)
	schemaLen, err := readUv()
	if err != nil {
		return nil, err
	}
	if uint64(len(body)-pos) < schemaLen {
		return nil, errors.New("table: catalog truncated")
	}
	schema, n, err := relation.DecodeSchemaBinary(body[pos : pos+int(schemaLen)])
	if err != nil {
		return nil, err
	}
	if n != int(schemaLen) || !bytes.Equal(schema.AppendBinary(nil), body[pos:pos+n]) {
		return nil, errors.New("table: catalog schema is not in canonical form")
	}
	meta.schema = schema
	pos += int(schemaLen)
	nSec, err := readUv()
	if err != nil {
		return nil, err
	}
	if nSec > uint64(schema.NumAttrs()) {
		return nil, fmt.Errorf("table: catalog lists %d secondary attrs for %d attributes", nSec, schema.NumAttrs())
	}
	for i := uint64(0); i < nSec; i++ {
		a, err := readUv()
		if err != nil {
			return nil, err
		}
		meta.secondary = append(meta.secondary, int(a))
	}
	nBlocks, err := readUv()
	if err != nil {
		return nil, err
	}
	const maxBlocks = 1 << 31
	if nBlocks > maxBlocks {
		return nil, fmt.Errorf("table: implausible catalog block count %d", nBlocks)
	}
	for i := uint64(0); i < nBlocks; i++ {
		id, err := readUv()
		if err != nil {
			return nil, err
		}
		if id >= uint64(storage.InvalidPage) {
			return nil, fmt.Errorf("table: catalog block %d names impossible page %d", i, id)
		}
		meta.blocks = append(meta.blocks, storage.PageID(id))
	}
	if pos != len(body) {
		return nil, errors.New("table: trailing bytes in catalog")
	}
	return meta, nil
}

// initCatalogHeads reserves pages 0 and 1 as the two catalog chain heads
// on a fresh persistent table. The first checkpoint publishes generation
// 1 into slot 1's head; slot 0's head is marked dirty so that checkpoint
// writes it zeroed, and both heads are on stable storage once Create
// returns, whatever the pager (an object pager's Allocate writes nothing).
func (t *Table) initCatalogHeads() error {
	for slot := 0; slot < 2; slot++ {
		frame, err := t.pool.Allocate()
		if err != nil {
			return err
		}
		if slot == 0 {
			frame.MarkDirty()
		}
		t.catalogChains[slot] = []storage.PageID{frame.ID()}
		if err := t.pool.Unpin(frame); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint makes the current state durable under the exclusive lock: it
// writes the catalog into the inactive slot, flushes every dirty page,
// syncs the file, and only then releases pages freed since the previous
// checkpoint for reuse. A plain flush for in-memory tables.
func (t *Table) Checkpoint() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.checkpoint()
}

// checkpoint is Checkpoint's body; the caller holds mu exclusively (or owns
// a table not yet shared, as Create and Open do).
func (t *Table) checkpoint() error {
	if t.closed {
		return ErrClosed
	}
	if !t.persistent() {
		return t.pool.Flush()
	}
	gen := t.generation + 1
	slot := int(gen & 1)
	blob := t.catalogBlob(gen)
	chunkCap := t.opts.PageSize - catalogFrameOverhead
	needed := (len(blob) + chunkCap - 1) / chunkCap
	if needed == 0 {
		needed = 1
	}
	chain := t.catalogChains[slot]
	for len(chain) < needed {
		frame, err := t.pool.Allocate()
		if err != nil {
			return err
		}
		chain = append(chain, frame.ID())
		if err := t.pool.Unpin(frame); err != nil {
			return err
		}
	}
	for len(chain) > needed {
		last := chain[len(chain)-1]
		chain = chain[:len(chain)-1]
		if err := t.pool.Free(last); err != nil {
			return err
		}
	}
	t.catalogChains[slot] = chain
	dp, durable := t.pager.(storage.DurablePager)
	// Durability barrier 1: every data page the new catalog will reference
	// must be on stable storage before any catalog page naming it is
	// written. With a single combined flush+sync the device may persist the
	// catalog ahead of the data it points at — a reordered crash then
	// recovers a valid catalog of garbage pages.
	if err := t.pool.Flush(); err != nil {
		return err
	}
	if durable {
		if err := dp.Sync(); err != nil {
			return err
		}
	}
	for i, id := range chain {
		frame, err := t.pool.Get(id)
		if err != nil {
			return err
		}
		next := storage.InvalidPage
		if i+1 < len(chain) {
			next = chain[i+1]
		}
		chunk := blob[i*chunkCap:]
		if len(chunk) > chunkCap {
			chunk = chunk[:chunkCap]
		}
		data := frame.Data()
		binary.BigEndian.PutUint32(data[0:4], uint32(next))
		binary.BigEndian.PutUint32(data[4:8], uint32(len(chunk)))
		copy(data[catalogFrameOverhead:], chunk)
		clear(data[catalogFrameOverhead+len(chunk):])
		frame.MarkDirty()
		if err := t.pool.Unpin(frame); err != nil {
			return err
		}
	}
	// Durability barrier 2: publish the catalog.
	if err := t.pool.Flush(); err != nil {
		return err
	}
	if durable {
		if err := dp.Sync(); err != nil {
			return err
		}
	}
	// The new catalog is durable: pages freed before it can now be reused.
	t.generation = gen
	if durable {
		dp.ReleasePending()
	}
	// With the catalog published, everything the log holds is folded in:
	// rotate to a fresh segment at the new generation and delete the old
	// ones. Ordering matters — rotating first would leave a crash window
	// with neither the log nor the catalog holding recent mutations.
	if t.wal != nil {
		if err := t.wal.Rotate(gen); err != nil {
			return err
		}
	}
	return nil
}

// Close checkpoints (persistent tables), releases the buffer pool, and
// closes the pager, all under the exclusive lock. Further operations
// return errors.
func (t *Table) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	if t.persistent() {
		if err := t.checkpoint(); err != nil {
			return err
		}
	}
	t.closed = true
	// t.wal stays set: a writer that logged before Close may still be in
	// walCommit, which reads it without the lock (a closed log answers an
	// already-durable LSN with nil and anything else with wal.ErrClosed).
	if t.wal != nil {
		if err := t.wal.Close(); err != nil {
			return err
		}
	}
	if err := t.pool.Close(); err != nil {
		return err
	}
	return t.pager.Close()
}

// Open loads a persistent table created by Create with a path. The
// schema, codec, block layout, and secondary-index configuration come from
// the newest valid catalog; options supply runtime knobs (pool size,
// observability). One decode pass over the data blocks restores the
// store's fences (the primary index), rebuilds the secondary indexes and
// counts the tuples.
func Open(path string, options ...Option) (*Table, error) {
	if path == "" {
		return nil, errors.New("table: Open needs a path")
	}
	opts := resolveOptions(options)
	opts.Path = path
	opts.fillDefaults()
	if opts.FS == nil {
		opts.FS = storage.OSFS{}
	}
	fsys := opts.FS

	walDirExists := false
	if names, derr := fsys.ReadDir(walPath(path)); derr == nil {
		for _, name := range names {
			if wal.IsSegmentName(name) {
				walDirExists = true
				break
			}
		}
	}

	// A torn page file (partial tail page, or too short to hold the two
	// catalog heads) is corruption, not a usage error: report it as such,
	// with the offset where the intact prefix ends. Exception: in WAL mode
	// every page a durable catalog references was fsynced before that
	// catalog published, so a partial tail page can only be an
	// unacknowledged torn write from the crash — cut it and recover.
	// With an injected pager there is no page file to check: its writes
	// are whole-page atomic, so a torn tail cannot exist.
	if size, serr := fsys.Stat(path); opts.Pager == nil && serr == nil && size > 0 {
		ps := int64(opts.PageSize)
		if rem := size % ps; rem != 0 {
			if !walDirExists {
				return nil, fmt.Errorf("table: open %s: %w: torn page file, %d trailing bytes at offset %d",
					path, blockstore.ErrCorruptBlock, rem, size-rem)
			}
			f, ferr := fsys.OpenFile(path, os.O_RDWR)
			if ferr != nil {
				return nil, fmt.Errorf("table: open %s: %w", path, ferr)
			}
			terr := f.Truncate(size - rem)
			if terr == nil {
				terr = f.Sync()
			}
			cerr := f.Close()
			if terr != nil {
				return nil, fmt.Errorf("table: open %s: cut torn tail: %w", path, terr)
			}
			if cerr != nil {
				return nil, fmt.Errorf("table: open %s: cut torn tail: %w", path, cerr)
			}
			size -= rem
		}
		if size < 2*ps {
			return nil, fmt.Errorf("table: open %s: %w: page file truncated at offset %d (the two catalog heads need %d bytes)",
				path, blockstore.ErrCorruptBlock, size, 2*ps)
		}
	}

	// Bootstrap: read both catalog chains with a raw pager so the schema
	// and layout are known before the table shell exists. An injected
	// pager doubles as its own probe — it is reused, not closed, when the
	// shell is built around it.
	var probe storage.Pager
	if opts.Pager != nil {
		probe = opts.Pager
	} else {
		fp, err := storage.OpenFilePagerFS(fsys, path, opts.PageSize)
		if err != nil {
			return nil, err
		}
		probe = fp
	}
	if probe.NumPages() < 2 {
		return nil, errors.Join(errors.New("table: file holds no catalog; use Create"), probe.Close())
	}
	var (
		best   *catalogMeta
		chains [2][]storage.PageID
	)
	var firstErr error
	for slot := 0; slot < 2; slot++ {
		head := storage.PageID(slot)
		chains[slot] = []storage.PageID{head}
		blob, chain, err := readCatalogChain(probe, head, opts.PageSize)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		meta, err := parseCatalog(blob)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		chains[slot] = chain
		if best == nil || meta.generation > best.generation {
			best = meta
		}
	}
	var closeErr error
	if opts.Pager == nil {
		closeErr = probe.Close()
	}
	if best == nil {
		if firstErr == nil {
			firstErr = errors.New("table: no valid catalog")
		}
		return nil, fmt.Errorf("table: open %s: %w: %w", path, blockstore.ErrCorruptBlock, firstErr)
	}
	if closeErr != nil {
		return nil, closeErr
	}
	opts.Codec = core.Codec(best.codec)
	if !opts.Codec.Valid() {
		return nil, fmt.Errorf("table: open %s: catalog names %w %d", path, core.ErrBadCodec, best.codec)
	}
	opts.SecondaryAttrs = best.secondary

	t, err := newTableShell(best.schema, opts)
	if err != nil {
		return nil, err
	}
	t.catalogChains = chains
	t.generation = best.generation
	// One decode pass: the store captures each block's φ-fence and hands
	// the tuples on for the secondary indexes and the count.
	count := 0
	//avqlint:ignore ctxflow opening is uninterruptible setup
	if err := t.store.Restore(context.Background(), best.blocks, func(id storage.PageID, ts []relation.Tuple) {
		t.registerTuples(id, ts)
		count += len(ts)
	}); err != nil {
		return nil, errors.Join(err, t.Close())
	}
	if count != best.size {
		return nil, errors.Join(fmt.Errorf("table: catalog says %d tuples, blocks hold %d", best.size, count), t.Close())
	}
	t.size = count
	// Return any file pages that neither a catalog chain nor a block claims
	// to the free list, so space orphaned by a crash is reused.
	referenced := make(map[storage.PageID]bool, len(best.blocks)+4)
	for _, id := range best.blocks {
		referenced[id] = true
	}
	for slot := 0; slot < 2; slot++ {
		for _, id := range t.catalogChains[slot] {
			referenced[id] = true
		}
	}
	for id := 0; id < t.pager.NumPages(); id++ {
		if !referenced[storage.PageID(id)] {
			if err := t.pager.Free(storage.PageID(id)); err != nil {
				return nil, errors.Join(err, t.Close())
			}
		}
	}
	// Pages orphaned by a crash are immediately reusable.
	if dp, ok := t.pager.(storage.DurablePager); ok {
		dp.ReleasePending()
	}
	// Attach and replay the WAL when asked for — or when a log directory
	// already exists, whatever the options say: ignoring it would silently
	// drop writes that were acknowledged as durable.
	if opts.Durability == DurabilityWAL || walDirExists {
		t.opts.Durability = DurabilityWAL
		if err := t.attachWALReplay(); err != nil {
			// Deliberately NOT t.Close(): its checkpoint would publish the
			// partially replayed state and orphan the log. Tear down raw so
			// the catalog and log on disk stay exactly as found.
			t.closed = true
			return nil, errors.Join(err, t.pool.Close(), t.pager.Close())
		}
	}
	return t, nil
}

// readCatalogChain walks one catalog chain starting at head on a raw pager
// and returns the concatenated blob and the chain's page ids.
func readCatalogChain(pager storage.Pager, head storage.PageID, pageSize int) ([]byte, []storage.PageID, error) {
	var blob []byte
	var chain []storage.PageID
	seen := make(map[storage.PageID]bool)
	buf := make([]byte, pageSize)
	id := head
	for {
		if seen[id] {
			return nil, nil, errors.New("table: catalog chain contains a cycle")
		}
		seen[id] = true
		chain = append(chain, id)
		if err := pager.Read(id, buf); err != nil {
			return nil, nil, err
		}
		next := storage.PageID(binary.BigEndian.Uint32(buf[0:4]))
		chunkLen := int(binary.BigEndian.Uint32(buf[4:8]))
		if chunkLen > pageSize-catalogFrameOverhead {
			return nil, nil, fmt.Errorf("table: catalog chunk of %d bytes exceeds page", chunkLen)
		}
		blob = append(blob, buf[catalogFrameOverhead:catalogFrameOverhead+chunkLen]...)
		if next == storage.InvalidPage {
			return blob, chain, nil
		}
		id = next
	}
}
