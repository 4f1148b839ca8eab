package shard

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"repro/internal/backend"
)

// FuzzDecodeCatalog: Open reads the shard catalog before anything else
// and trusts its kind, page size and split points to wire every shard.
// Whatever the bytes, DecodeCatalog must not panic, and a catalog it
// accepts must be the one encoding of what it parsed: Encode gives back
// the same bytes. The fuzzer mutates the checksummed body and the harness
// appends a valid CRC, so mutations reach the parser behind the checksum;
// the raw bytes are decoded too, as found.
func FuzzDecodeCatalog(f *testing.F) {
	for _, c := range []*Catalog{
		{Kind: backend.KindMemory, Epoch: 0, Domain: 1, PageSize: 512, Shards: []Info{{}}},
		{Kind: backend.KindObject, Epoch: 7, Domain: 1000, PageSize: 4096,
			Splits: []uint64{100, 400, 900}, Shards: []Info{{10, 1}, {20, 2}, {30, 3}, {40, 4}}},
		{Kind: backend.KindFilesystem, Epoch: 1 << 40, Domain: 1 << 63, PageSize: 8192,
			Splits: []uint64{1 << 62}, Shards: []Info{{1 << 50, 3}, {0, 0}}},
	} {
		blob := c.Encode()
		if _, err := DecodeCatalog(blob); err != nil {
			f.Fatalf("seed catalog does not decode: %v", err)
		}
		f.Add(blob[:len(blob)-4])
	}
	f.Add([]byte{})
	f.Add(catalogMagic[:])
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, blob := range [][]byte{
			body, // as found: almost always a checksum mismatch
			binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body)),
		} {
			c, err := DecodeCatalog(blob)
			if err != nil {
				continue
			}
			if got := c.Encode(); !bytes.Equal(got, blob) {
				t.Fatalf("accepted catalog re-encodes differently:\n in  %x\n out %x", blob, got)
			}
		}
	})
}
