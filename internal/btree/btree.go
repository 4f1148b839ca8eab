// Package btree implements an in-memory B+ tree over byte-string keys.
//
// The paper's access methods (Section 4.1) are B+ trees. The secondary
// indexes, whose keys are single attribute values pointing at buckets of
// data blocks (Figure 4.5), are built on this tree; attribute keys are the
// fixed-width big-endian encodings of package relation, whose byte order
// equals value order, so plain bytes.Compare routes correctly. (The
// primary index of Figure 4.4 is the block store's sorted fence array and
// needs no tree.)
//
// The tree supports unique-key insert (with replace), delete with
// borrow/merge rebalancing, point lookups, bounded range scans over the
// linked leaf chain, and a structural invariant checker used by the
// property tests.
package btree

import (
	"bytes"
	"fmt"

	"repro/internal/obs"
)

// MinOrder is the smallest supported order (maximum keys per node).
const MinOrder = 3

// DefaultOrder is a reasonable general-purpose node width.
const DefaultOrder = 64

// Tree is a B+ tree mapping []byte keys to values of type V. Keys are
// unique. The zero value is not usable; call New.
//
// Tree is not safe for concurrent mutation; the table layer serializes
// access.
type Tree[V any] struct {
	maxKeys int
	root    *node[V]
	size    int
	height  int
	nodes   int
	probes  *obs.Counter // nil-safe; one Inc per root-to-leaf descent
}

type node[V any] struct {
	leaf     bool
	keys     [][]byte
	children []*node[V] // internal nodes: len(children) == len(keys)+1
	values   []V        // leaf nodes: len(values) == len(keys)
	next     *node[V]   // leaf chain
}

// New creates a tree whose nodes hold at most order keys.
func New[V any](order int) (*Tree[V], error) {
	if order < MinOrder {
		return nil, fmt.Errorf("btree: order %d below minimum %d", order, MinOrder)
	}
	return &Tree[V]{
		maxKeys: order,
		root:    &node[V]{leaf: true},
		height:  1,
		nodes:   1,
	}, nil
}

// MustNew is New panicking on error, for statically valid orders.
func MustNew[V any](order int) *Tree[V] {
	t, err := New[V](order)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Tree[V]) minKeys() int { return t.maxKeys / 2 }

// Len returns the number of keys in the tree.
func (t *Tree[V]) Len() int { return t.size }

// Height returns the number of levels, counting the leaf level.
func (t *Tree[V]) Height() int { return t.height }

// NodeCount returns the number of nodes; experiments use it to estimate
// index size in blocks (the paper assumes index blocks are about 5% of
// data blocks, Section 5.3.1).
func (t *Tree[V]) NodeCount() int { return t.nodes }

// searchKeys returns the index of the first key in n greater than key
// (upper bound), and whether an exact match exists at index-1.
func searchKeys[V any](n *node[V], key []byte) (int, bool) {
	lo, hi := 0, len(n.keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(n.keys[mid], key) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	exact := lo > 0 && bytes.Equal(n.keys[lo-1], key)
	return lo, exact
}

// SetProbeCounter attaches an obs counter incremented once per
// root-to-leaf descent (nil detaches). The table layer wires it so
// index probe volume shows up in the metrics snapshot.
func (t *Tree[V]) SetProbeCounter(c *obs.Counter) { t.probes = c }

// leafFor descends to the leaf that would contain key.
func (t *Tree[V]) leafFor(key []byte) *node[V] {
	t.probes.Inc()
	n := t.root
	for !n.leaf {
		idx, _ := searchKeys(n, key)
		n = n.children[idx]
	}
	return n
}

// Get returns the value stored under key.
func (t *Tree[V]) Get(key []byte) (V, bool) {
	n := t.leafFor(key)
	idx, exact := searchKeys(n, key)
	if !exact {
		var zero V
		return zero, false
	}
	return n.values[idx-1], true
}

// Scan visits entries with from <= key < to in ascending order. A nil from
// starts at the minimum; a nil to scans to the end. fn returning false
// stops the scan. Scan returns the number of entries visited.
//
// The visited key slices are the tree's own; callers must not mutate them.
func (t *Tree[V]) Scan(from, to []byte, fn func(key []byte, value V) bool) int {
	var n *node[V]
	var idx int
	if from == nil {
		n = t.root
		for !n.leaf {
			n = n.children[0]
		}
		idx = 0
	} else {
		n = t.leafFor(from)
		i, exact := searchKeys(n, from)
		if exact {
			idx = i - 1
		} else {
			idx = i
		}
	}
	visited := 0
	for n != nil {
		for ; idx < len(n.keys); idx++ {
			if to != nil && bytes.Compare(n.keys[idx], to) >= 0 {
				return visited
			}
			visited++
			if !fn(n.keys[idx], n.values[idx]) {
				return visited
			}
		}
		n = n.next
		idx = 0
	}
	return visited
}

// Insert stores value under key, replacing any existing value. It reports
// whether a previous value was replaced.
func (t *Tree[V]) Insert(key []byte, value V) bool {
	k := append([]byte(nil), key...) // the tree owns its keys
	promoted, sibling, replaced := t.insert(t.root, k, value)
	if sibling != nil {
		newRoot := &node[V]{
			keys:     [][]byte{promoted},
			children: []*node[V]{t.root, sibling},
		}
		t.root = newRoot
		t.height++
		t.nodes++
	}
	if !replaced {
		t.size++
	}
	return replaced
}

func (t *Tree[V]) insert(n *node[V], key []byte, value V) (promoted []byte, sibling *node[V], replaced bool) {
	if n.leaf {
		idx, exact := searchKeys(n, key)
		if exact {
			n.values[idx-1] = value
			return nil, nil, true
		}
		n.keys = append(n.keys, nil)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = key
		var zero V
		n.values = append(n.values, zero)
		copy(n.values[idx+1:], n.values[idx:])
		n.values[idx] = value
		if len(n.keys) > t.maxKeys {
			return t.splitLeaf(n)
		}
		return nil, nil, false
	}
	idx, _ := searchKeys(n, key)
	promoted, sibling, replaced = t.insert(n.children[idx], key, value)
	if sibling != nil {
		n.keys = append(n.keys, nil)
		copy(n.keys[idx+1:], n.keys[idx:])
		n.keys[idx] = promoted
		n.children = append(n.children, nil)
		copy(n.children[idx+2:], n.children[idx+1:])
		n.children[idx+1] = sibling
		if len(n.keys) > t.maxKeys {
			p, s := t.splitInternal(n)
			return p, s, replaced
		}
	}
	return nil, nil, replaced
}

func (t *Tree[V]) splitLeaf(n *node[V]) ([]byte, *node[V], bool) {
	mid := len(n.keys) / 2
	right := &node[V]{
		leaf:   true,
		keys:   append([][]byte(nil), n.keys[mid:]...),
		values: append([]V(nil), n.values[mid:]...),
		next:   n.next,
	}
	n.next = right
	n.keys = n.keys[:mid]
	n.values = n.values[:mid]
	t.nodes++
	return right.keys[0], right, false
}

func (t *Tree[V]) splitInternal(n *node[V]) ([]byte, *node[V]) {
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	right := &node[V]{
		keys:     append([][]byte(nil), n.keys[mid+1:]...),
		children: append([]*node[V](nil), n.children[mid+1:]...),
	}
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	t.nodes++
	return promoted, right
}

// Delete removes key from the tree and reports whether it was present.
func (t *Tree[V]) Delete(key []byte) bool {
	deleted := t.delete(t.root, key)
	if deleted {
		t.size--
	}
	if !t.root.leaf && len(t.root.children) == 1 {
		t.root = t.root.children[0]
		t.height--
		t.nodes--
	}
	return deleted
}

func (t *Tree[V]) delete(n *node[V], key []byte) bool {
	if n.leaf {
		idx, exact := searchKeys(n, key)
		if !exact {
			return false
		}
		i := idx - 1
		n.keys = append(n.keys[:i], n.keys[i+1:]...)
		n.values = append(n.values[:i], n.values[i+1:]...)
		return true
	}
	idx, _ := searchKeys(n, key)
	child := n.children[idx]
	deleted := t.delete(child, key)
	if deleted && t.underflow(child) {
		t.rebalance(n, idx)
	}
	return deleted
}

func (t *Tree[V]) underflow(n *node[V]) bool {
	if n.leaf {
		return len(n.keys) < t.minKeys()
	}
	return len(n.children) < t.minKeys()+1
}

// rebalance fixes the underflowing child at position idx of parent n by
// borrowing from a sibling or merging with one.
func (t *Tree[V]) rebalance(n *node[V], idx int) {
	child := n.children[idx]
	var left, right *node[V]
	if idx > 0 {
		left = n.children[idx-1]
	}
	if idx < len(n.children)-1 {
		right = n.children[idx+1]
	}
	switch {
	case right != nil && t.canLend(right):
		t.borrowFromRight(n, idx, child, right)
	case left != nil && t.canLend(left):
		t.borrowFromLeft(n, idx, left, child)
	case right != nil:
		t.merge(n, idx, child, right)
	case left != nil:
		t.merge(n, idx-1, left, child)
	}
}

func (t *Tree[V]) canLend(n *node[V]) bool {
	if n.leaf {
		return len(n.keys) > t.minKeys()
	}
	return len(n.children) > t.minKeys()+1
}

func (t *Tree[V]) borrowFromRight(parent *node[V], idx int, child, right *node[V]) {
	if child.leaf {
		child.keys = append(child.keys, right.keys[0])
		child.values = append(child.values, right.values[0])
		right.keys = right.keys[1:]
		right.values = right.values[1:]
		parent.keys[idx] = right.keys[0]
		return
	}
	child.keys = append(child.keys, parent.keys[idx])
	parent.keys[idx] = right.keys[0]
	right.keys = right.keys[1:]
	child.children = append(child.children, right.children[0])
	right.children = right.children[1:]
}

func (t *Tree[V]) borrowFromLeft(parent *node[V], idx int, left, child *node[V]) {
	last := len(left.keys) - 1
	if child.leaf {
		child.keys = append([][]byte{left.keys[last]}, child.keys...)
		child.values = append([]V{left.values[last]}, child.values...)
		left.keys = left.keys[:last]
		left.values = left.values[:last]
		parent.keys[idx-1] = child.keys[0]
		return
	}
	child.keys = append([][]byte{parent.keys[idx-1]}, child.keys...)
	parent.keys[idx-1] = left.keys[last]
	left.keys = left.keys[:last]
	lastChild := len(left.children) - 1
	child.children = append([]*node[V]{left.children[lastChild]}, child.children...)
	left.children = left.children[:lastChild]
}

// merge folds right (at position idx+1) into left (at position idx) and
// removes the separator from the parent.
func (t *Tree[V]) merge(parent *node[V], idx int, left, right *node[V]) {
	if left.leaf {
		left.keys = append(left.keys, right.keys...)
		left.values = append(left.values, right.values...)
		left.next = right.next
	} else {
		left.keys = append(left.keys, parent.keys[idx])
		left.keys = append(left.keys, right.keys...)
		left.children = append(left.children, right.children...)
	}
	parent.keys = append(parent.keys[:idx], parent.keys[idx+1:]...)
	parent.children = append(parent.children[:idx+1], parent.children[idx+2:]...)
	t.nodes--
}
