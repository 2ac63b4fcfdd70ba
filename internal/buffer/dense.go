package buffer

// DenseStackSim computes the LRU stack distance of every access in a single
// pass. The stack distance is the 1-based position of the page in the LRU
// stack at the moment of access — equivalently, the number of distinct
// pages referenced since the previous reference to the same page, inclusive.
// By LRU's inclusion property, an access hits in a pool of capacity C iff
// its stack distance is at most C, so one pass yields the exact miss rate
// for every capacity simultaneously (the paper's Figure 8 sweeps buffer
// sizes; we get all of them from one simulation).
//
// The implementation is the classic Fenwick-tree-over-timestamps algorithm:
// a bit is set at the last-access time of every distinct page; the distance
// of an access is one plus the number of set bits after the page's previous
// access time. Pages are identified by contiguous int64 ordinals (see sim's
// flat page-ordinal mapping), so the last-access lookup is a flat slice
// index and timestamp compaction is a counting pass. The per-access path
// performs no allocation and no hashing; its cost is the two Fenwick-tree
// walks, O(log distinct) each.
//
// The ordinal space may grow during the run (the TPC-C append-only
// relations gain pages as transactions insert tuples); Access extends the
// last-access table on demand with amortized-O(1) doubling.
//
// Its oracles live in the tests: a map-based simulator keyed by PageID that
// must agree access for access on any stream related by an ordinal
// bijection (dense_test.go and the fuzz target), and the direct LRU list.
type DenseStackSim struct {
	last     []int64 // last[ord] = last access timestamp (1-based), 0 = never seen
	tree     []int64 // Fenwick tree over timestamps
	time     int64   // current timestamp (1-based, < len(tree))
	distinct int64
}

// NewDenseStackSim returns a simulator for page ordinals in [0, universe).
// Ordinals at or past universe are accepted too (the table grows), but
// pre-sizing to the known page universe avoids regrowth: the TPC-C page
// count is known a priori from the schema (Table 1 cardinalities), which is
// exactly what makes the dense layout possible.
func NewDenseStackSim(universe int64) *DenseStackSim {
	if universe < 0 {
		panic("buffer: universe must be non-negative")
	}
	return &DenseStackSim{
		last: make([]int64, universe),
		// The timestamp space scales with the table so compaction — an
		// O(len(last) + len(tree)) counting pass — amortizes to O(1) per
		// access no matter how sparse the reference stream is.
		tree: make([]int64, 2*universe+1024),
	}
}

// Distinct returns the number of distinct ordinals seen so far.
func (s *DenseStackSim) Distinct() int64 { return s.distinct }

// Universe returns the current size of the last-access table.
func (s *DenseStackSim) Universe() int64 { return int64(len(s.last)) }

func (s *DenseStackSim) add(i, delta int64) {
	for ; i < int64(len(s.tree)); i += i & -i {
		s.tree[i] += delta
	}
}

func (s *DenseStackSim) sum(i int64) int64 {
	var t int64
	for ; i > 0; i -= i & -i {
		t += s.tree[i]
	}
	return t
}

// compact renumbers the live timestamps 1..distinct preserving order, in one
// counting pass over the ordinal table — O(universe), no map iteration, no
// sort. It runs when the timestamp space fills; the tree is resized so at
// least half the new space is free, keeping the amortized cost per access
// constant.
func (s *DenseStackSim) compact() {
	// occ[t] = ord+1 for the page whose last access is timestamp t.
	// Timestamps are unique per page, so this is a perfect bucket sort.
	occ := make([]int64, s.time+1)
	for ord, t := range s.last {
		if t != 0 {
			occ[t] = int64(ord) + 1
		}
	}
	size := 2*s.distinct + 1024
	if min := 2 * int64(len(s.last)); size < min {
		size = min
	}
	s.tree = make([]int64, size)
	var nt int64
	for _, o := range occ[1:] {
		if o != 0 {
			nt++
			s.last[o-1] = nt
			s.add(nt, 1)
		}
	}
	s.time = nt
}

// grow extends the last-access table to cover ord.
func (s *DenseStackSim) grow(ord int64) {
	size := 2 * int64(len(s.last))
	if size < ord+1 {
		size = ord + 1
	}
	bigger := make([]int64, size)
	copy(bigger, s.last)
	s.last = bigger
}

// Access records a reference to the page with the given ordinal and returns
// its LRU stack distance, or ColdDistance for a first reference.
func (s *DenseStackSim) Access(ord int64) int64 {
	if ord < 0 {
		panic("buffer: page ordinal must be non-negative")
	}
	if ord >= int64(len(s.last)) {
		s.grow(ord)
	}
	if s.time+1 >= int64(len(s.tree)) {
		s.compact()
	}
	s.time++
	t := s.time
	prev := s.last[ord]
	var dist int64
	if prev != 0 {
		// Distinct pages touched after prev: set bits in (prev, t).
		dist = s.sum(t-1) - s.sum(prev) + 1
		s.add(prev, -1)
	} else {
		dist = ColdDistance
		s.distinct++
	}
	s.add(t, 1)
	s.last[ord] = t
	return dist
}
