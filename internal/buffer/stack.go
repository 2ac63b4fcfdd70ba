package buffer

// ColdDistance is returned by DenseStackSim.Access for a page's first
// reference, which misses at every finite buffer size.
const ColdDistance = int64(-1)

// MissCurve accumulates stack distances into an exact miss-rate-vs-capacity
// curve. Distances are counted with bucket width 1 up to the largest
// distance seen; cold misses are tracked separately (they miss at every
// capacity).
//
// After accumulation, Finalize converts the counts to a prefix-sum form so
// MissRate answers in O(1) and MissRates in one cumulative pass; a finalized
// curve is safe for concurrent reads. Add and Merge drop the prefix sums, so
// accumulation can resume after a premature Finalize.
type MissCurve struct {
	counts   []int64 // counts[d-1] = number of accesses with distance d
	cold     int64
	accesses int64
	// cumHits[d] = accesses with finite distance <= d (hits at capacity d);
	// nil until Finalize, invalidated by Add and Merge.
	cumHits []int64
}

// Add records one access's stack distance (from DenseStackSim.Access).
func (m *MissCurve) Add(dist int64) {
	m.cumHits = nil
	m.accesses++
	if dist == ColdDistance {
		m.cold++
		return
	}
	if dist <= 0 {
		panic("buffer: stack distance must be positive or ColdDistance")
	}
	for int64(len(m.counts)) < dist {
		m.counts = append(m.counts, 0)
	}
	m.counts[dist-1]++
}

// Finalize computes the cumulative-hits prefix sums. Call it once after the
// last Add/Merge; reads are then O(1) per capacity and race-free.
func (m *MissCurve) Finalize() { m.cumHits = m.prefixHits() }

// Finalized reports whether the prefix-sum form is current.
func (m *MissCurve) Finalized() bool { return m.cumHits != nil }

// prefixHits builds cum[d] = hits at capacity d (cum[0] = 0).
func (m *MissCurve) prefixHits() []int64 {
	cum := make([]int64, len(m.counts)+1)
	for d, c := range m.counts {
		cum[d+1] = cum[d] + c
	}
	return cum
}

// Accesses returns the number of recorded accesses.
func (m *MissCurve) Accesses() int64 { return m.accesses }

// ColdMisses returns the number of first references recorded.
func (m *MissCurve) ColdMisses() int64 { return m.cold }

// MaxDistance returns the largest finite stack distance recorded.
func (m *MissCurve) MaxDistance() int64 { return int64(len(m.counts)) }

// MissRate returns the exact LRU miss rate for a pool of the given capacity
// in pages: the fraction of accesses whose stack distance exceeds capacity
// (cold misses always miss). On a finalized curve this is an O(1) prefix-sum
// lookup; otherwise it scans the counts up to capacity.
func (m *MissCurve) MissRate(capacity int64) float64 {
	if m.accesses == 0 {
		return 0
	}
	if capacity < 0 {
		capacity = 0
	}
	lim := capacity
	if lim > int64(len(m.counts)) {
		lim = int64(len(m.counts))
	}
	var hits int64
	if m.cumHits != nil {
		hits = m.cumHits[lim]
	} else {
		for d := int64(0); d < lim; d++ {
			hits += m.counts[d]
		}
	}
	return 1 - float64(hits)/float64(m.accesses)
}

// MissRates evaluates the curve at several capacities at once in one
// cumulative pass over the counts (capacities need not be sorted): the
// finalized prefix sums — computed on the fly when the curve is not yet
// finalized — answer each capacity in O(1), so the whole call is
// O(distances + capacities) rather than O(distances x capacities).
func (m *MissCurve) MissRates(capacities []int64) []float64 {
	cum := m.cumHits
	if cum == nil {
		cum = m.prefixHits()
	}
	out := make([]float64, len(capacities))
	if m.accesses == 0 {
		return out
	}
	for i, c := range capacities {
		if c < 0 {
			c = 0
		}
		if c > int64(len(cum))-1 {
			c = int64(len(cum)) - 1
		}
		out[i] = 1 - float64(cum[c])/float64(m.accesses)
	}
	return out
}

// Merge adds another curve's observations into m.
func (m *MissCurve) Merge(o *MissCurve) {
	m.cumHits = nil
	for int64(len(m.counts)) < int64(len(o.counts)) {
		m.counts = append(m.counts, 0)
	}
	for i, c := range o.counts {
		m.counts[i] += c
	}
	m.cold += o.cold
	m.accesses += o.accesses
}
