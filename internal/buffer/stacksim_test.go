package buffer

import (
	"sort"

	"tpccmodel/internal/core"
)

// StackSim is DenseStackSim's oracle: the same Fenwick-tree-over-
// timestamps stack distances, but keyed by PageID through a map, so it needs
// no ordinal space, and compacted by sorting the live timestamps instead of
// a counting pass over the ordinal table.
type StackSim struct {
	last map[core.PageID]int64 // page -> last access timestamp (1-based)
	tree []int64               // Fenwick tree over timestamps
	time int64                 // current timestamp (1-based, <= len(tree)-1)
}

// NewStackSim returns an empty stack-distance simulator.
func NewStackSim() *StackSim {
	return &StackSim{
		last: make(map[core.PageID]int64),
		tree: make([]int64, 1024),
	}
}

// Distinct returns the number of distinct pages seen so far.
func (s *StackSim) Distinct() int64 { return int64(len(s.last)) }

func (s *StackSim) add(i, delta int64) {
	for ; i < int64(len(s.tree)); i += i & -i {
		s.tree[i] += delta
	}
}

func (s *StackSim) sum(i int64) int64 {
	var t int64
	for ; i > 0; i -= i & -i {
		t += s.tree[i]
	}
	return t
}

// compact renumbers timestamps 1..distinct preserving order, and resizes
// the Fenwick tree to hold at least twice the distinct page count. It runs
// when the timestamp space fills, so its amortized cost per access is
// O(log distinct).
func (s *StackSim) compact() {
	type pt struct {
		page core.PageID
		t    int64
	}
	pts := make([]pt, 0, len(s.last))
	for p, t := range s.last {
		pts = append(pts, pt{p, t})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].t < pts[j].t })
	size := int64(2*len(pts) + 1024)
	s.tree = make([]int64, size)
	for i := range pts {
		nt := int64(i + 1)
		s.last[pts[i].page] = nt
		s.add(nt, 1)
	}
	s.time = int64(len(pts))
}

// Access records a reference to page p and returns its LRU stack distance,
// or ColdDistance for a first reference.
func (s *StackSim) Access(p core.PageID) int64 {
	if s.time+1 >= int64(len(s.tree)) {
		s.compact()
	}
	s.time++
	t := s.time
	prev, seen := s.last[p]
	var dist int64
	if seen {
		// Distinct pages touched after prev: set bits in (prev, t).
		dist = s.sum(t-1) - s.sum(prev) + 1
		s.add(prev, -1)
	} else {
		dist = ColdDistance
	}
	s.add(t, 1)
	s.last[p] = t
	return dist
}
