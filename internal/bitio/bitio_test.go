package bitio

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundTrip(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0b101, 3)
	w.WriteBits(0xFF, 8)
	w.WriteBits(0, 1)
	w.WriteBits(0b1101_0110_1, 9)
	w.WriteBits(1<<63|1, 64)
	buf := w.Bytes()

	r := NewReader(buf)
	cases := []struct {
		n    uint
		want uint64
	}{
		{3, 0b101}, {8, 0xFF}, {1, 0}, {9, 0b1101_0110_1}, {64, 1<<63 | 1},
	}
	for i, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got != c.want {
			t.Fatalf("read %d: got %b, want %b", i, got, c.want)
		}
	}
}

func TestZeroBits(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0xDEAD, 0) // no-op
	w.WriteBits(1, 1)
	buf := w.Bytes()
	if len(buf) != 1 {
		t.Fatalf("buf = %d bytes", len(buf))
	}
	r := NewReader(buf)
	if v, err := r.ReadBits(0); err != nil || v != 0 {
		t.Fatalf("ReadBits(0) = %d, %v", v, err)
	}
	if v, err := r.ReadBits(1); err != nil || v != 1 {
		t.Fatalf("ReadBits(1) = %d, %v", v, err)
	}
}

func TestOverrun(t *testing.T) {
	r := NewReader([]byte{0xAB})
	if _, err := r.ReadBits(9); !errors.Is(err, ErrOverrun) {
		t.Fatalf("err = %v", err)
	}
	// Partial reads up to the boundary succeed.
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); !errors.Is(err, ErrOverrun) {
		t.Fatal("read past end succeeded")
	}
}

func TestBitLenAndOffset(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0b11, 2)
	if w.BitLen() != 2 {
		t.Fatalf("BitLen = %d", w.BitLen())
	}
	w.WriteBits(0, 14)
	if w.BitLen() != 16 {
		t.Fatalf("BitLen = %d", w.BitLen())
	}
	r := NewReader(w.Bytes())
	r.ReadBits(5)
	if r.Offset() != 5 || r.Remaining() != 11 {
		t.Fatalf("offset=%d remaining=%d", r.Offset(), r.Remaining())
	}
}

func TestSkip(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0b101, 3)
	w.WriteBits(0x1FFFF, 17)
	w.WriteBits(0b0110, 4)
	r := NewReader(w.Bytes())
	r.ReadBits(3)
	if err := r.Skip(17); err != nil {
		t.Fatal(err)
	}
	if v, err := r.ReadBits(4); err != nil || v != 0b0110 {
		t.Fatalf("after Skip: ReadBits = %b, %v", v, err)
	}
	if err := r.Skip(1); !errors.Is(err, ErrOverrun) {
		t.Fatalf("Skip past end: err = %v", err)
	}
	if r.Offset() != 24 {
		t.Fatalf("failed Skip moved the reader to %d", r.Offset())
	}
}

func TestPartialByteZeroPadded(t *testing.T) {
	w := NewWriter(nil)
	w.WriteBits(0b1, 1)
	buf := w.Bytes()
	if buf[0] != 0b1000_0000 {
		t.Fatalf("partial byte = %08b", buf[0])
	}
	// Bytes must not corrupt continued writing.
	w.WriteBits(0b1, 1)
	buf = w.Bytes()
	if buf[0] != 0b1100_0000 {
		t.Fatalf("after second write = %08b", buf[0])
	}
}

func TestAppendToExisting(t *testing.T) {
	w := NewWriter([]byte{0x01, 0x02})
	w.WriteBits(0xFF, 8)
	buf := w.Bytes()
	if len(buf) != 3 || buf[0] != 0x01 || buf[2] != 0xFF {
		t.Fatalf("buf = %x", buf)
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%60) + 1
		widths := make([]uint, n)
		values := make([]uint64, n)
		w := NewWriter(nil)
		for i := 0; i < n; i++ {
			widths[i] = uint(rng.Intn(64)) + 1
			values[i] = rng.Uint64() & (1<<widths[i] - 1)
			if widths[i] == 64 {
				values[i] = rng.Uint64()
			}
			w.WriteBits(values[i], widths[i])
		}
		r := NewReader(w.Bytes())
		for i := 0; i < n; i++ {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != values[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		size uint64
		want uint
	}{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{256, 8}, {257, 9}, {1 << 20, 20}, {1<<20 + 1, 21},
	}
	for _, c := range cases {
		if got := BitsFor(c.size); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
}
