package table

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"

	"repro/internal/core"
)

// FuzzParseCatalog: the catalog is read from a file before anything else
// is known about the table, and Restore trusts its block list. Whatever
// the bytes, parseCatalog must not panic, and a blob it accepts must be
// the one serialization of what it parsed — re-serializing gives the same
// bytes (up to the reserved byte, which is ignored on read and written 0).
// The fuzzer mutates the checksummed body and the harness appends a valid
// CRC, so mutations reach the structure behind the checksum.
func FuzzParseCatalog(f *testing.F) {
	ctx := context.Background()
	empty := newTable(f, core.CodecAVQ, nil)
	loaded := newTable(f, core.CodecPacked, []int{1, 4})
	if err := loaded.BulkLoadContext(ctx, randomTuples(f, 600, 77)); err != nil {
		f.Fatal(err)
	}
	for _, blob := range [][]byte{empty.catalogBlob(1), loaded.catalogBlob(1 << 40)} {
		if _, err := parseCatalog(blob); err != nil {
			f.Fatalf("seed catalog does not parse: %v", err)
		}
		f.Add(blob[:len(blob)-4])
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, blob := range [][]byte{
			body, // as found: almost always a checksum mismatch
			binary.BigEndian.AppendUint32(slices.Clone(body), crc32.ChecksumIEEE(body)),
		} {
			meta, err := parseCatalog(blob)
			if err != nil {
				continue
			}
			want := slices.Clone(blob)
			_, n := binary.Uvarint(want[len(catalogMagic):])
			want[len(catalogMagic)+n+1] = 0 // the reserved byte
			sum := crc32.ChecksumIEEE(want[:len(want)-4])
			binary.BigEndian.PutUint32(want[len(want)-4:], sum)
			if got := meta.appendBinary(); !bytes.Equal(got, want) {
				t.Fatalf("accepted catalog re-serializes differently:\n in  %x\n out %x", want, got)
			}
		}
	})
}
