// Package ordwidth is an analyzer fixture: conversions that truncate
// arithmetic results versus idiomatic byte extraction.
package ordwidth

// pageOffset is FilePager.Read's file offset with the product taken
// through 32 bits: every page past 4 GiB is read from the wrong place. No
// test file is that large, and no test caught that mutation.
func pageOffset(id uint64, pageSize int) int64 {
	return int64(uint32(id * uint64(pageSize)))
}

// truncateMul narrows a 64-bit product to a byte.
func truncateMul(x, y uint64) byte {
	return byte(x * y)
}

// truncateShift narrows a left-shifted int to 16 bits.
func truncateShift(n int) uint16 {
	return uint16(n << 4)
}

// truncateSub narrows an int difference to 8 bits.
func truncateSub(hi, lo int) int8 {
	return int8(hi - lo)
}

// suppressedTruncate documents an intentional wraparound.
func suppressedTruncate(a, b uint64) uint32 {
	return uint32(a + b) //avqlint:ignore ordwidth fixture: proves suppression works
}

// goodByteExtract right-shifts before narrowing: magnitude only shrinks.
func goodByteExtract(v uint64) byte {
	return byte(v >> 56)
}

// goodMask masks before narrowing.
func goodMask(v uint64) byte {
	return byte(v & 0xff)
}

// goodWiden converts operands before the arithmetic instead of the result.
func goodWiden(i int, d uint64) uint64 {
	return uint64(i) + d
}

// goodSameWidth keeps the width; uint64 and int are both 64-bit here.
func goodSameWidth(a, b uint64) int {
	return int(a - b)
}

// goodConstant is folded and range-checked by the compiler.
func goodConstant() uint8 {
	return uint8(3 + 4)
}

// halfShift and digitMask are named constants the checker must evaluate
// through go/types; the old literal-only reasoning was blind to them.
const (
	halfShift = 16
	topShift  = 56
	digitMask = 0x1ffff // 17 bits
	byteMask  = 0xff
)

// truncateNamedShift keeps 48 significant bits of a 64-bit value but
// converts to 32: the top 16 are silently dropped.
func truncateNamedShift(x uint64) uint32 {
	return uint32(x >> halfShift)
}

// truncateWideMask masks to 17 bits and converts to 16.
func truncateWideMask(x uint64) uint16 {
	return uint16(x & digitMask)
}

// goodNamedShift leaves exactly 8 bits for a byte.
func goodNamedShift(v uint64) byte {
	return byte(v >> topShift)
}

// goodNamedMask masks to exactly the target width.
func goodNamedMask(v uint64) byte {
	return byte(v & byteMask)
}
