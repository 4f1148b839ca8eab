package btree

import (
	"bytes"
	"fmt"
)

// CheckInvariants walks the whole tree and verifies its structural
// invariants: uniform leaf depth, sorted unique keys, separator bounds,
// minimum fill outside the root, a consistent doubly linked leaf chain,
// and agreement between Len, NodeCount, Height and the actual structure.
// It returns the first violation found, or nil. It is exported for tests
// and for the avqtool verify command.
func (t *Tree[V]) CheckInvariants() error {
	leafDepth := -1
	nodeCount := 0
	keyCount := 0
	var leaves []*node[V]

	var walk func(n *node[V], depth int, lo, hi []byte) error
	walk = func(n *node[V], depth int, lo, hi []byte) error {
		nodeCount++
		for i := 1; i < len(n.keys); i++ {
			if bytes.Compare(n.keys[i-1], n.keys[i]) >= 0 {
				return fmt.Errorf("btree: keys out of order at depth %d: %x >= %x", depth, n.keys[i-1], n.keys[i])
			}
		}
		for _, k := range n.keys {
			if lo != nil && bytes.Compare(k, lo) < 0 {
				return fmt.Errorf("btree: key %x below subtree lower bound %x", k, lo)
			}
			if hi != nil && bytes.Compare(k, hi) >= 0 {
				return fmt.Errorf("btree: key %x at or above subtree upper bound %x", k, hi)
			}
		}
		if n.leaf {
			if len(n.values) != len(n.keys) {
				return fmt.Errorf("btree: leaf has %d keys but %d values", len(n.keys), len(n.values))
			}
			if n != t.root && len(n.keys) < t.minKeys() {
				return fmt.Errorf("btree: leaf underfull: %d < %d", len(n.keys), t.minKeys())
			}
			if len(n.keys) > t.maxKeys {
				return fmt.Errorf("btree: leaf overfull: %d > %d", len(n.keys), t.maxKeys)
			}
			if leafDepth == -1 {
				leafDepth = depth
			} else if depth != leafDepth {
				return fmt.Errorf("btree: leaves at depths %d and %d", leafDepth, depth)
			}
			keyCount += len(n.keys)
			leaves = append(leaves, n)
			return nil
		}
		if len(n.children) != len(n.keys)+1 {
			return fmt.Errorf("btree: internal node has %d keys but %d children", len(n.keys), len(n.children))
		}
		if n != t.root && len(n.children) < t.minKeys()+1 {
			return fmt.Errorf("btree: internal underfull: %d children < %d", len(n.children), t.minKeys()+1)
		}
		if len(n.keys) > t.maxKeys {
			return fmt.Errorf("btree: internal overfull: %d > %d", len(n.keys), t.maxKeys)
		}
		for i, c := range n.children {
			clo, chi := lo, hi
			if i > 0 {
				clo = n.keys[i-1]
			}
			if i < len(n.keys) {
				chi = n.keys[i]
			}
			if err := walk(c, depth+1, clo, chi); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(t.root, 1, nil, nil); err != nil {
		return err
	}

	if nodeCount != t.nodes {
		return fmt.Errorf("btree: node count %d != tracked %d", nodeCount, t.nodes)
	}
	if keyCount != t.size {
		return fmt.Errorf("btree: key count %d != tracked size %d", keyCount, t.size)
	}
	if leafDepth != t.height {
		return fmt.Errorf("btree: leaf depth %d != tracked height %d", leafDepth, t.height)
	}

	// The leaf chain must enumerate exactly the leaves found by the walk,
	// in order.
	first := t.root
	for !first.leaf {
		first = first.children[0]
	}
	i := 0
	for n := first; n != nil; n = n.next {
		if i >= len(leaves) || n != leaves[i] {
			return fmt.Errorf("btree: leaf chain diverges from tree order at position %d", i)
		}
		i++
	}
	if i != len(leaves) {
		return fmt.Errorf("btree: leaf chain has %d leaves, tree has %d", i, len(leaves))
	}
	return nil
}
