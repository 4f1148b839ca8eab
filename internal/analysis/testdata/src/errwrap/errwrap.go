// Package errwrap is an analyzer fixture: fmt.Errorf calls that flatten
// error values instead of wrapping them with %w.
package errwrap

import (
	"errors"
	"fmt"
)

var errSentinel = errors.New("sentinel")

func fail() error { return errSentinel }

// openSegment is wal.Open's open-segment error flattened with %v: a
// caller can no longer tell a missing segment (fs.ErrNotExist) from a
// failed disk. No test caught that mutation in the real code.
func openSegment(path string, err error) error {
	return fmt.Errorf("wal: open segment %s: %v", path, err)
}

// flattenS loses the sentinel behind %s, mid-arg-list.
func flattenS(block int, err error) error {
	return fmt.Errorf("block %d: %s", block, err)
}

// flattenConcat is built from concatenated literals, still checkable.
func flattenConcat(err error) error {
	return fmt.Errorf("phase one:"+" %v", err)
}

// goodWrap preserves the chain.
func goodWrap(err error) error {
	return fmt.Errorf("load failed: %w", err)
}

// goodDoubleWrap uses the Go 1.20 multi-%w form; the %v beside it is a
// flattening choice the rule leaves alone.
func goodDoubleWrap(a, b error) error {
	return fmt.Errorf("outer %w inner %v: %w", a, b, fail())
}

// goodNoError has no error argument at all, including a literal %%v.
func goodNoError(n int) error {
	return fmt.Errorf("bad count %d (100%%v-free)", n)
}

// goodDynamicFormat cannot be checked statically.
func goodDynamicFormat(f string, err error) error {
	return fmt.Errorf(f, err) //nolint — fixture: dynamic format is excluded by policy
}

// suppressedFlatten is annotated deliberate flattening.
func suppressedFlatten(err error) error {
	//avqlint:ignore errwrap fixture: proves suppression works
	return fmt.Errorf("context only: %v", err)
}
