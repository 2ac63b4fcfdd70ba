// Package index implements the engine's two in-memory indexes over packed
// uint64 keys — a B+tree with doubly-linked leaves for range scans, and
// Dense, a direct-addressed map for relations probed only by key — plus
// key packing helpers for TPC-C's composite keys.
//
// The paper assumes "an ordered multi-keyed index so that the correct
// tuple can be fetched in just one index look up" (the Max/Min selects of
// Order-Status and Delivery) and charges no I/O for index traversal, so
// the tree is memory-resident by design. Deletion follows the
// empty-page-only reclamation strategy used by production B-trees such as
// PostgreSQL's nbtree: keys are removed in place and a node is unlinked
// only when it becomes empty, so separators never need rebalancing.
package index

import (
	"fmt"
	"sort"
)

// maxKeys is the fan-out bound per node.
const maxKeys = 64

// ErrDuplicate is returned by Insert for an existing key.
var ErrDuplicate = fmt.Errorf("index: duplicate key")

// ErrNotFound is returned for absent keys.
var ErrNotFound = fmt.Errorf("index: key not found")

type node struct {
	leaf bool
	keys []uint64
	// vals parallels keys in leaves.
	vals []uint64
	// kids has len(keys)+1 entries in internal nodes: kids[i] holds keys
	// k with (i == 0 || k >= keys[i-1]) && (i == len(keys) || k < keys[i]).
	kids []*node
	// prev/next chain leaves in key order.
	prev, next *node
	// run is one past the position of the node's latest insert, so an
	// insert at run continues an ascending run of keys. Deletes leave it
	// stale: it only steers where the node splits.
	run int
	// Embedded backing arrays for keys/vals/kids. A node transiently
	// overfills to maxKeys+1 keys (and an internal parent to maxKeys+2
	// kids) before split restores the bound, so the arrays carry that
	// slack and inserts never grow a slice through the allocator.
	keysBuf [maxKeys + 1]uint64
	valsBuf [maxKeys + 1]uint64
	kidsBuf [maxKeys + 2]*node
}

// BTree is a unique-key B+tree mapping uint64 to uint64.
type BTree struct {
	root *node
	size int
	// path is findLeaf's reusable descent scratch. Mutating operations
	// (Insert/Set/Delete) already require external exclusive locking, so
	// sharing it is safe; read-only operations descend via leafFor and
	// never touch it, keeping concurrent readers allocation-free.
	path []*node
	// chunk backs batched node allocation; splits carve nodes from it so
	// steady-state index growth costs amortized fractions of a heap
	// allocation per split. Mutators hold an exclusive lock (see path).
	chunk []node
}

// nodeChunkSize is how many nodes are allocated per chunk.
const nodeChunkSize = 16

// newNode carves an initialized node from the tree's chunk.
func (t *BTree) newNode(leaf bool) *node {
	if len(t.chunk) == 0 {
		t.chunk = make([]node, nodeChunkSize)
	}
	n := &t.chunk[0]
	t.chunk = t.chunk[1:]
	n.leaf = leaf
	n.keys = n.keysBuf[:0]
	n.vals = n.valsBuf[:0]
	n.kids = n.kidsBuf[:0]
	return n
}

// New creates an empty tree.
func New() *BTree {
	t := &BTree{}
	t.root = t.newNode(true)
	return t
}

// Len returns the number of keys.
func (t *BTree) Len() int { return t.size }

// findLeaf descends to the leaf that would hold key, recording the path
// in the tree's reusable scratch. Only for mutating operations, which
// hold an exclusive lock.
func (t *BTree) findLeaf(key uint64) (*node, []*node) {
	n := t.root
	path := t.path[:0]
	for !n.leaf {
		path = append(path, n)
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n = n.kids[i]
	}
	t.path = path
	return n, path
}

// leafFor descends to the leaf that would hold key without recording the
// path — the allocation-free descent for read-only operations.
func (t *BTree) leafFor(key uint64) *node {
	n := t.root
	for !n.leaf {
		i := sort.Search(len(n.keys), func(i int) bool { return key < n.keys[i] })
		n = n.kids[i]
	}
	return n
}

// Get returns the value for key.
func (t *BTree) Get(key uint64) (uint64, bool) {
	n := t.leafFor(key)
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= key })
	if i < len(n.keys) && n.keys[i] == key {
		return n.vals[i], true
	}
	return 0, false
}

// Insert adds key -> val, returning ErrDuplicate if key exists.
func (t *BTree) Insert(key, val uint64) error {
	leaf, path := t.findLeaf(key)
	i := sort.Search(len(leaf.keys), func(i int) bool { return leaf.keys[i] >= key })
	if i < len(leaf.keys) && leaf.keys[i] == key {
		return ErrDuplicate
	}
	t.insertAt(leaf, path, i, key, val)
	return nil
}

// Set adds or replaces key -> val.
func (t *BTree) Set(key, val uint64) {
	leaf, path := t.findLeaf(key)
	i := sort.Search(len(leaf.keys), func(i int) bool { return leaf.keys[i] >= key })
	if i < len(leaf.keys) && leaf.keys[i] == key {
		leaf.vals[i] = val
		return
	}
	t.insertAt(leaf, path, i, key, val)
}

// insertAt puts key -> val at position i of leaf.
func (t *BTree) insertAt(leaf *node, path []*node, i int, key, val uint64) {
	leaf.keys = insertU64(leaf.keys, i, key)
	leaf.vals = insertU64(leaf.vals, i, val)
	t.size++
	t.placed(leaf, path, i)
}

func insertU64(s []uint64, i int, v uint64) []uint64 {
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeU64(s []uint64, i int) []uint64 {
	copy(s[i:], s[i+1:])
	return s[:len(s)-1]
}

// placed follows the insertion of n's key at pos: it splits n if the key
// overfilled it, propagating up the path, and records pos in the node that
// keeps the key. A node splits at the middle, except on ascending inserts:
// a new maximum goes right alone, and a key that continues the node's run
// (lands right after the node's previous insert) ends the left node, its
// successors going right. Then appending keys — one district's orders,
// new-orders or order lines, each after the last, while other districts
// append elsewhere — leaves every node behind the insertion point full
// rather than half full.
func (t *BTree) placed(n *node, path []*node, pos int) {
	for len(n.keys) > maxKeys {
		mid := len(n.keys) / 2
		switch {
		case pos == len(n.keys)-1:
			mid = pos
		case pos == n.run:
			mid = pos + 1
		}
		var right *node
		var sep uint64
		if n.leaf {
			right = t.newNode(true)
			right.keys = append(right.keys, n.keys[mid:]...)
			right.vals = append(right.vals, n.vals[mid:]...)
			n.keys = n.keys[:mid]
			n.vals = n.vals[:mid]
			sep = right.keys[0]
			right.next = n.next
			if right.next != nil {
				right.next.prev = right
			}
			right.prev = n
			n.next = right
			if pos >= mid {
				right.run = pos - mid + 1
			}
		} else {
			right = t.newNode(false)
			// The key at mid moves up; right gets keys after it.
			sep = n.keys[mid]
			right.keys = append(right.keys, n.keys[mid+1:]...)
			right.kids = append(right.kids, n.kids[mid+1:]...)
			n.keys = n.keys[:mid]
			n.kids = n.kids[:mid+1]
			if pos >= mid {
				right.run = pos - mid
			}
		}
		if pos < mid {
			n.run = pos + 1
		}
		var parent *node
		if len(path) == 0 {
			parent = t.newNode(false)
			parent.kids = append(parent.kids, n)
			t.root = parent
		} else {
			parent = path[len(path)-1]
			path = path[:len(path)-1]
		}
		i := sort.Search(len(parent.keys), func(i int) bool { return sep < parent.keys[i] })
		parent.keys = insertU64(parent.keys, i, sep)
		parent.kids = append(parent.kids, nil)
		copy(parent.kids[i+2:], parent.kids[i+1:])
		parent.kids[i+1] = right
		n, pos = parent, i
	}
	n.run = pos + 1
}

// Delete removes key, returning ErrNotFound if absent. Nodes are unlinked
// only when empty.
func (t *BTree) Delete(key uint64) error {
	leaf, path := t.findLeaf(key)
	i := sort.Search(len(leaf.keys), func(i int) bool { return leaf.keys[i] >= key })
	if i >= len(leaf.keys) || leaf.keys[i] != key {
		return ErrNotFound
	}
	leaf.keys = removeU64(leaf.keys, i)
	leaf.vals = removeU64(leaf.vals, i)
	t.size--
	if len(leaf.keys) == 0 {
		t.unlink(leaf, path)
	}
	return nil
}

// unlink removes an empty node from its parent, cascading upward.
func (t *BTree) unlink(n *node, path []*node) {
	if n.leaf {
		if n.prev != nil {
			n.prev.next = n.next
		}
		if n.next != nil {
			n.next.prev = n.prev
		}
	}
	if len(path) == 0 {
		// The root itself is empty, so the tree is. A leaf root stays; an
		// internal root whose last child just cascaded up (a root left
		// with one internal child is never collapsed past that child's own
		// last leaf) has no kids to descend into and is replaced by an
		// empty leaf.
		if n.leaf {
			n.prev, n.next = nil, nil
		} else {
			t.root = t.newNode(true)
		}
		return
	}
	parent := path[len(path)-1]
	idx := -1
	for i, k := range parent.kids {
		if k == n {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("index: corrupt parent link")
	}
	// Remove the child and one separator (the one to its left, or the
	// first one when removing kids[0]).
	parent.kids = append(parent.kids[:idx], parent.kids[idx+1:]...)
	if len(parent.keys) > 0 {
		sep := idx - 1
		if sep < 0 {
			sep = 0
		}
		parent.keys = removeU64(parent.keys, sep)
	}
	if len(parent.kids) == 0 {
		t.unlink(parent, path[:len(path)-1])
	} else if parent == t.root && len(parent.kids) == 1 {
		t.root = parent.kids[0]
	}
}

// Leaves returns the number of leaves: Len over Leaves·64 is the leaf fill.
func (t *BTree) Leaves() int {
	n := t.root
	for !n.leaf {
		n = n.kids[0]
	}
	leaves := 0
	for ; n != nil; n = n.next {
		leaves++
	}
	return leaves
}

// Min returns the smallest key >= lo with its value.
func (t *BTree) Min(lo uint64) (key, val uint64, ok bool) {
	it := t.Seek(lo)
	return it.Next()
}

// Max returns the largest key <= hi with its value, by scanning from the
// leaf holding hi backward.
func (t *BTree) Max(hi uint64) (key, val uint64, ok bool) {
	n := t.leafFor(hi)
	for n != nil {
		for i := len(n.keys) - 1; i >= 0; i-- {
			if n.keys[i] <= hi {
				return n.keys[i], n.vals[i], true
			}
		}
		n = n.prev
	}
	return 0, 0, false
}

// Iter iterates leaf entries in ascending key order.
type Iter struct {
	n *node
	i int
}

// Seek positions an iterator at the first key >= lo. The iterator is
// returned by value so seeking does not allocate.
func (t *BTree) Seek(lo uint64) Iter {
	n := t.leafFor(lo)
	i := sort.Search(len(n.keys), func(i int) bool { return n.keys[i] >= lo })
	return Iter{n: n, i: i}
}

// Next returns the current entry and advances; ok is false at the end.
func (it *Iter) Next() (key, val uint64, ok bool) {
	for it.n != nil && it.i >= len(it.n.keys) {
		it.n = it.n.next
		it.i = 0
	}
	if it.n == nil {
		return 0, 0, false
	}
	k, v := it.n.keys[it.i], it.n.vals[it.i]
	it.i++
	return k, v, true
}

// AscendRange calls fn for each entry with lo <= key <= hi in order;
// returning false stops the scan.
func (t *BTree) AscendRange(lo, hi uint64, fn func(key, val uint64) bool) {
	it := t.Seek(lo)
	for {
		k, v, ok := it.Next()
		if !ok || k > hi {
			return
		}
		if !fn(k, v) {
			return
		}
	}
}

// Validate checks structural invariants (ordering, separator consistency,
// leaf chaining) and returns the first violation found. Used by tests.
func (t *BTree) Validate() error {
	var prevKey *uint64
	var count int
	var check func(n *node, lo, hi *uint64) error
	check = func(n *node, lo, hi *uint64) error {
		if n.leaf {
			for _, k := range n.keys {
				if lo != nil && k < *lo {
					return fmt.Errorf("index: key %d below separator %d", k, *lo)
				}
				if hi != nil && k >= *hi {
					return fmt.Errorf("index: key %d at/above separator %d", k, *hi)
				}
				if prevKey != nil && k <= *prevKey {
					return fmt.Errorf("index: keys not strictly ascending at %d", k)
				}
				kk := k
				prevKey = &kk
				count++
			}
			return nil
		}
		if len(n.kids) != len(n.keys)+1 {
			return fmt.Errorf("index: internal node with %d keys, %d kids", len(n.keys), len(n.kids))
		}
		for i, kid := range n.kids {
			var l, h *uint64
			if i > 0 {
				l = &n.keys[i-1]
			} else {
				l = lo
			}
			if i < len(n.keys) {
				h = &n.keys[i]
			} else {
				h = hi
			}
			if err := check(kid, l, h); err != nil {
				return err
			}
		}
		return nil
	}
	if err := check(t.root, nil, nil); err != nil {
		return err
	}
	if count != t.size {
		return fmt.Errorf("index: size %d but %d keys reachable", t.size, count)
	}
	return nil
}
