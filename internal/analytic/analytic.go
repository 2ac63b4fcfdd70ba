// Package analytic predicts LRU buffer hit ratios without simulation,
// using Che's approximation under the independent reference model (IRM):
// for a page accessed with probability p out of a stream hitting a cache
// of C pages, the hit probability is 1 - exp(-p * T_C), where the
// characteristic time T_C solves
//
//	sum over pages i of (1 - exp(-p_i * T_C)) = C.
//
// The paper obtains its Figure 8 miss rates by trace-driven simulation;
// this module is the closed-form companion: it takes the same exact NURand
// page distributions (package nurand + packing) and produces the
// miss-rate-vs-buffer-size curves in microseconds. The approximation is
// exact in the large-cache limit for IRM streams; TPC-C's static skewed
// relations (customer, stock, item) are close to IRM, while the growing
// relations are recency-driven and lie outside the model (the comparison
// experiment quantifies the resulting error).
package analytic

import (
	"fmt"
	"math"
)

// Class is one group of pages sharing an access-probability profile: a
// relation (or one group of a grouped relation, repeated Copies times).
type Class struct {
	// Name identifies the class in outputs.
	Name string
	// Weight is the class's share of the total access stream (the
	// mix-weighted accesses per transaction, normalized by the caller
	// or by Normalize).
	Weight float64
	// PagePMF is the within-class page access distribution (sums to 1).
	PagePMF []float64
	// Copies repeats the class (e.g. one stock group per warehouse,
	// each receiving Weight/Copies of the stream).
	Copies int
}

// Validate checks the class.
func (c Class) Validate() error {
	if c.Weight < 0 {
		return fmt.Errorf("analytic: class %q has negative weight", c.Name)
	}
	if len(c.PagePMF) == 0 {
		return fmt.Errorf("analytic: class %q has no pages", c.Name)
	}
	if c.Copies < 1 {
		return fmt.Errorf("analytic: class %q needs Copies >= 1", c.Name)
	}
	var sum float64
	for _, p := range c.PagePMF {
		if p < 0 {
			return fmt.Errorf("analytic: class %q has a negative probability", c.Name)
		}
		sum += p
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("analytic: class %q PMF sums to %v", c.Name, sum)
	}
	return nil
}

// Model is a normalized IRM over page classes.
type Model struct {
	classes []Class
}

// NewModel builds a model, normalizing class weights to sum to 1.
func NewModel(classes []Class) (*Model, error) {
	if len(classes) == 0 {
		return nil, fmt.Errorf("analytic: need at least one class")
	}
	var total float64
	for _, c := range classes {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		total += c.Weight
	}
	if total <= 0 {
		return nil, fmt.Errorf("analytic: total weight must be positive")
	}
	out := make([]Class, len(classes))
	for i, c := range classes {
		c.Weight /= total
		out[i] = c
	}
	return &Model{classes: out}, nil
}

// TotalPages returns the number of distinct pages across all classes and
// copies.
func (m *Model) TotalPages() int64 {
	var n int64
	for _, c := range m.classes {
		n += int64(len(c.PagePMF)) * int64(c.Copies)
	}
	return n
}

// occupancy returns the expected number of resident pages at
// characteristic time t.
func (m *Model) occupancy(t float64) float64 {
	var occ float64
	for _, c := range m.classes {
		perCopy := c.Weight / float64(c.Copies)
		for _, p := range c.PagePMF {
			occ += float64(c.Copies) * (1 - math.Exp(-p*perCopy*t))
		}
	}
	return occ
}

// CharacteristicTime solves Che's fixed point for a cache of
// capacityPages pages by bisection. It returns +Inf when the capacity
// holds every page.
func (m *Model) CharacteristicTime(capacityPages int64) float64 {
	c := float64(capacityPages)
	if capacityPages <= 0 {
		return 0
	}
	if c >= float64(m.TotalPages()) {
		return math.Inf(1)
	}
	// Bracket: occupancy is increasing in t from 0 to TotalPages.
	lo, hi := 0.0, 1.0
	for m.occupancy(hi) < c {
		hi *= 2
		if hi > 1e18 {
			return math.Inf(1)
		}
	}
	for i := 0; i < 200 && hi-lo > 1e-9*hi; i++ {
		mid := (lo + hi) / 2
		if m.occupancy(mid) < c {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// MissRates returns the per-class miss rate at the given capacity: the
// access-probability-weighted miss probability of the class's pages.
func (m *Model) MissRates(capacityPages int64) []float64 {
	t := m.CharacteristicTime(capacityPages)
	out := make([]float64, len(m.classes))
	for i, c := range m.classes {
		if math.IsInf(t, 1) {
			out[i] = 0
			continue
		}
		perCopy := c.Weight / float64(c.Copies)
		var miss float64
		for _, p := range c.PagePMF {
			// Each copy contributes identically.
			miss += p * math.Exp(-p*perCopy*t)
		}
		out[i] = miss
	}
	return out
}

// OverallMissRate returns the stream-weighted miss rate at the capacity.
func (m *Model) OverallMissRate(capacityPages int64) float64 {
	rates := m.MissRates(capacityPages)
	var overall float64
	for i, c := range m.classes {
		overall += c.Weight * rates[i]
	}
	return overall
}
