// Package buffer implements database buffer-pool replacement policies and a
// single-pass LRU stack-distance simulator.
//
// The paper's buffer model (Section 4) assumes a single shared pool managed
// by LRU and measures per-relation miss rates as a function of pool size.
// LRU's inclusion property means one pass that records each access's stack
// distance yields the exact miss rate for every pool size simultaneously;
// DenseStackSim implements that with a Fenwick tree over access timestamps.
//
// The paper hypothesizes that "more sophisticated replacement policies
// could result in an even larger difference between optimized packing of
// tuples and non-optimized packing"; the additional policies here (CLOCK,
// LFU, 2Q, segmented LRU, FIFO) exist to test that hypothesis as an
// ablation.
package buffer

import (
	"fmt"

	"tpccmodel/internal/core"
)

// Policy is a fixed-capacity page-replacement policy. Access reports
// whether the page was resident (hit) and makes it resident, evicting as
// needed.
type Policy interface {
	// Name identifies the policy for reports.
	Name() string
	// Capacity returns the pool capacity in pages.
	Capacity() int64
	// Access touches a page, returning true on a hit.
	Access(p core.PageID) bool
	// Len returns the number of resident pages.
	Len() int64
	// Reset empties the pool.
	Reset()
}

// NewPolicy constructs a policy by name: "lru", "fifo", "clock", "lfu",
// "2q", or "slru".
func NewPolicy(name string, capacity int64) (Policy, error) {
	switch name {
	case "lru":
		return NewLRU(capacity), nil
	case "fifo":
		return NewFIFO(capacity), nil
	case "clock":
		return NewClock(capacity), nil
	case "lfu":
		return NewLFU(capacity), nil
	case "2q":
		return NewTwoQ(capacity), nil
	case "slru":
		return NewSLRU(capacity), nil
	default:
		return nil, fmt.Errorf("buffer: unknown policy %q", name)
	}
}

// PolicyNames lists the available policy names.
func PolicyNames() []string { return []string{"lru", "fifo", "clock", "lfu", "2q", "slru"} }

// list is an intrusive doubly-linked list over slice-backed nodes, used by
// the LRU-family policies to avoid per-access allocation.
type node struct {
	page       core.PageID
	prev, next int32
}

const nilIdx = int32(-1)

type list struct {
	nodes      []node
	head, tail int32
	free       int32
	size       int64
}

func newList(capacity int64) *list {
	l := &list{head: nilIdx, tail: nilIdx, free: nilIdx}
	l.nodes = make([]node, 0, capacity)
	return l
}

func (l *list) alloc(p core.PageID) int32 {
	var idx int32
	if l.free != nilIdx {
		idx = l.free
		l.free = l.nodes[idx].next
	} else {
		l.nodes = append(l.nodes, node{})
		idx = int32(len(l.nodes) - 1)
	}
	l.nodes[idx] = node{page: p, prev: nilIdx, next: nilIdx}
	return idx
}

func (l *list) pushFront(idx int32) {
	n := &l.nodes[idx]
	n.prev = nilIdx
	n.next = l.head
	if l.head != nilIdx {
		l.nodes[l.head].prev = idx
	}
	l.head = idx
	if l.tail == nilIdx {
		l.tail = idx
	}
	l.size++
}

func (l *list) remove(idx int32) {
	n := &l.nodes[idx]
	if n.prev != nilIdx {
		l.nodes[n.prev].next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nilIdx {
		l.nodes[n.next].prev = n.prev
	} else {
		l.tail = n.prev
	}
	l.size--
}

func (l *list) release(idx int32) {
	l.nodes[idx].next = l.free
	l.free = idx
}

func (l *list) back() int32 { return l.tail }

// LRU is the paper's least-recently-used policy.
type LRU struct {
	capacity int64
	idx      map[core.PageID]int32
	l        *list
}

// NewLRU returns an LRU pool holding capacity pages (must be positive).
func NewLRU(capacity int64) *LRU {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &LRU{
		capacity: capacity,
		idx:      make(map[core.PageID]int32, capacity),
		l:        newList(capacity),
	}
}

// Name implements Policy.
func (c *LRU) Name() string { return "lru" }

// Capacity implements Policy.
func (c *LRU) Capacity() int64 { return c.capacity }

// Len implements Policy.
func (c *LRU) Len() int64 { return c.l.size }

// Reset implements Policy.
func (c *LRU) Reset() {
	c.idx = make(map[core.PageID]int32, c.capacity)
	c.l = newList(c.capacity)
}

// Access implements Policy.
func (c *LRU) Access(p core.PageID) bool {
	if idx, ok := c.idx[p]; ok {
		c.l.remove(idx)
		c.l.pushFront(idx)
		return true
	}
	if c.l.size >= c.capacity {
		victim := c.l.back()
		vp := c.l.nodes[victim].page
		c.l.remove(victim)
		c.l.release(victim)
		delete(c.idx, vp)
	}
	idx := c.l.alloc(p)
	c.l.pushFront(idx)
	c.idx[p] = idx
	return false
}

// FIFO evicts in insertion order, ignoring recency of use.
type FIFO struct {
	capacity int64
	idx      map[core.PageID]int32
	l        *list
}

// NewFIFO returns a FIFO pool holding capacity pages.
func NewFIFO(capacity int64) *FIFO {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &FIFO{
		capacity: capacity,
		idx:      make(map[core.PageID]int32, capacity),
		l:        newList(capacity),
	}
}

// Name implements Policy.
func (c *FIFO) Name() string { return "fifo" }

// Capacity implements Policy.
func (c *FIFO) Capacity() int64 { return c.capacity }

// Len implements Policy.
func (c *FIFO) Len() int64 { return c.l.size }

// Reset implements Policy.
func (c *FIFO) Reset() {
	c.idx = make(map[core.PageID]int32, c.capacity)
	c.l = newList(c.capacity)
}

// Access implements Policy.
func (c *FIFO) Access(p core.PageID) bool {
	if _, ok := c.idx[p]; ok {
		return true
	}
	if c.l.size >= c.capacity {
		victim := c.l.back()
		vp := c.l.nodes[victim].page
		c.l.remove(victim)
		c.l.release(victim)
		delete(c.idx, vp)
	}
	idx := c.l.alloc(p)
	c.l.pushFront(idx)
	c.idx[p] = idx
	return false
}

// Clock is the second-chance approximation of LRU.
type Clock struct {
	capacity int64
	idx      map[core.PageID]int
	pages    []core.PageID
	ref      []bool
	hand     int
}

// NewClock returns a CLOCK pool holding capacity pages.
func NewClock(capacity int64) *Clock {
	if capacity <= 0 {
		panic("buffer: capacity must be positive")
	}
	return &Clock{
		capacity: capacity,
		idx:      make(map[core.PageID]int, capacity),
		pages:    make([]core.PageID, 0, capacity),
		ref:      make([]bool, 0, capacity),
	}
}

// Name implements Policy.
func (c *Clock) Name() string { return "clock" }

// Capacity implements Policy.
func (c *Clock) Capacity() int64 { return c.capacity }

// Len implements Policy.
func (c *Clock) Len() int64 { return int64(len(c.pages)) }

// Reset implements Policy.
func (c *Clock) Reset() {
	c.idx = make(map[core.PageID]int, c.capacity)
	c.pages = c.pages[:0]
	c.ref = c.ref[:0]
	c.hand = 0
}

// Access implements Policy.
func (c *Clock) Access(p core.PageID) bool {
	if i, ok := c.idx[p]; ok {
		c.ref[i] = true
		return true
	}
	if int64(len(c.pages)) < c.capacity {
		c.pages = append(c.pages, p)
		c.ref = append(c.ref, false)
		c.idx[p] = len(c.pages) - 1
		return false
	}
	for c.ref[c.hand] {
		c.ref[c.hand] = false
		c.hand = (c.hand + 1) % len(c.pages)
	}
	delete(c.idx, c.pages[c.hand])
	c.pages[c.hand] = p
	c.ref[c.hand] = false
	c.idx[p] = c.hand
	c.hand = (c.hand + 1) % len(c.pages)
	return false
}
