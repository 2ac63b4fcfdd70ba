// Package nurand implements the TPC-C non-uniform random number function
// NU(A, x, y) analyzed in Section 3 of Leutenegger & Dias (SIGMOD '93):
//
//	NU(A, x, y) = ((rand(0, A) | rand(x, y)) + C) % (y - x + 1) + x
//
// where rand(x, y) is a uniform integer in the closed interval [x, y], "|"
// is bitwise OR, and C is a run constant in [0, A]. The paper fixes C = 0,
// which we default to (a nonzero C merely rotates the distribution).
//
// Besides sampling, the package computes the distribution three ways:
//
//   - ExactPMF: exact probabilities by direct enumeration of all
//     (A+1) x (y-x+1) input pairs. This replaces the paper's 10^9-sample
//     Monte Carlo runs (the substitution is strictly stronger).
//   - SamplePMF: the paper's Monte Carlo estimate, for fidelity checks.
//   - ClosedFormPMF: the Appendix A.3 closed form, valid when A+1 and the
//     range size are powers of two: P[v] = (3/4)^i (1/4)^j (1/2)^z with i
//     set bits and j zero bits among the low bits, z high bits.
//
// The standard TPC-C parameterizations used throughout the paper:
//
//	customer-id:   NU(1023, 1, 3000)
//	item/stock-id: NU(8191, 1, 100000)
//	customer-name: NU(255, lbound, ubound) over thirds of [1,3000]
package nurand

import (
	"fmt"
	"math"
	"math/bits"

	"tpccmodel/internal/rng"
)

// Params identifies one NU(A, x, y) distribution with run constant C.
type Params struct {
	A, C, X, Y int64
}

// Validate checks the TPC-C constraints on the parameters.
func (p Params) Validate() error {
	if p.X > p.Y {
		return fmt.Errorf("nurand: x (%d) must be <= y (%d)", p.X, p.Y)
	}
	if p.A < 0 {
		return fmt.Errorf("nurand: A (%d) must be non-negative", p.A)
	}
	if p.C < 0 || p.C > p.A {
		return fmt.Errorf("nurand: C (%d) must be in [0, A=%d]", p.C, p.A)
	}
	return nil
}

// Range returns the number of distinct values, y - x + 1.
func (p Params) Range() int64 { return p.Y - p.X + 1 }

// String renders the parameters in the paper's NU(A,x,y) notation.
func (p Params) String() string {
	if p.C == 0 {
		return fmt.Sprintf("NU(%d,%d,%d)", p.A, p.X, p.Y)
	}
	return fmt.Sprintf("NU(%d,%d,%d;C=%d)", p.A, p.X, p.Y, p.C)
}

// Standard TPC-C parameterizations from the paper.
var (
	// CustomerID is the customer-id distribution NU(1023, 1, 3000).
	CustomerID = Params{A: 1023, X: 1, Y: 3000}
	// ItemID is the item/stock-id distribution NU(8191, 1, 100000).
	ItemID = Params{A: 8191, X: 1, Y: 100000}
)

// NameThirds returns the three customer-name distributions the paper uses:
// NU(255, 1, 1000), NU(255, 1001, 2000), NU(255, 2001, 3000), chosen with
// equal probability when a Payment or Order-Status transaction selects a
// customer by last name.
func NameThirds() [3]Params {
	return [3]Params{
		{A: 255, X: 1, Y: 1000},
		{A: 255, X: 1001, Y: 2000},
		{A: 255, X: 2001, Y: 3000},
	}
}

// Gen samples from one NU distribution.
type Gen struct {
	p Params
	r *rng.RNG
}

// NewGen returns a sampler for the distribution. It panics if the
// parameters are invalid (programmer error; validate user input with
// Params.Validate first).
func NewGen(p Params, r *rng.RNG) *Gen {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return &Gen{p: p, r: r}
}

// Params returns the distribution parameters.
func (g *Gen) Params() Params { return g.p }

// Next draws one value in [x, y].
func (g *Gen) Next() int64 {
	p := g.p
	a := g.r.IntRange(0, p.A)
	b := g.r.IntRange(p.X, p.Y)
	return ((a|b)+p.C)%p.Range() + p.X
}

// ExactPMF computes the exact probability mass function over [x, y]:
// pmf[i] is the probability of value x+i. Rather than enumerate every
// (rand(0,A), rand(x,y)) input pair — ~8.2e8 of them for the paper's
// NU(8191,1,100000) — it counts the pairs behind each value with a digit DP
// over the bits of the bounds, which runs in milliseconds and is
// property-tested against that enumeration.
func ExactPMF(p Params) []float64 {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	return exactPMFDP(p)
}

// SamplePMF estimates the PMF from samples Monte Carlo draws, matching the
// paper's methodology (it used 10^9 samples for Figure 3).
func SamplePMF(p Params, samples int64, seed uint64) []float64 {
	g := NewGen(p, rng.New(seed))
	n := p.Range()
	counts := make([]int64, n)
	for i := int64(0); i < samples; i++ {
		counts[g.Next()-p.X]++
	}
	pmf := make([]float64, n)
	for i, c := range counts {
		pmf[i] = float64(c) / float64(samples)
	}
	return pmf
}

// IsPowerOfTwoCase reports whether the Appendix A.3 closed form applies:
// A+1 and the range size must both be powers of two (the paper states the
// function is exactly periodic in this case), and C must be zero.
func IsPowerOfTwoCase(p Params) bool {
	a1 := uint64(p.A + 1)
	r := uint64(p.Range())
	return p.C == 0 && a1&(a1-1) == 0 && r&(r-1) == 0 && p.A+1 <= p.Range()
}

// ClosedFormPMF computes the Appendix A.3 closed-form PMF for
// NU(2^a - 1, x, x + 2^b - 1), b >= a. The probability of the value with
// low-bit pattern v (relative to x... the derivation assumes x = 0; for
// x != 0 the distribution of (a|b) mod 2^b is unchanged because b - x is
// uniform over a full power-of-two range only when x = 0, so we require
// x = 0 here) is (3/4)^i (1/4)^(a-i) (1/2)^(b-a) with i the number of set
// bits among the low a bits. Panics unless IsPowerOfTwoCase(p) and p.X == 0.
func ClosedFormPMF(p Params) []float64 {
	if !IsPowerOfTwoCase(p) || p.X != 0 {
		panic("nurand: closed form requires x=0, A+1 and range powers of two")
	}
	aBits := bits.TrailingZeros64(uint64(p.A + 1))
	bBits := bits.TrailingZeros64(uint64(p.Range()))
	highFactor := math.Pow(0.5, float64(bBits-aBits))
	pmf := make([]float64, p.Range())
	for v := range pmf {
		low := uint64(v) & uint64(p.A)
		i := bits.OnesCount64(low)
		pmf[v] = math.Pow(0.75, float64(i)) * math.Pow(0.25, float64(aBits-i)) * highFactor
	}
	return pmf
}

// Cycles returns the number of periods of the PMF across the range, which
// the paper gives as floor(range / (A+1)) — 12 for NU(8191,1,100000).
func Cycles(p Params) int64 {
	if p.A+1 <= 0 {
		return 0
	}
	return p.Range() / (p.A + 1)
}

// Mixture is a finite mixture of NU distributions, used for relations whose
// accesses superimpose several key distributions. The paper's customer
// relation mixes the customer-id distribution (41.86% of accesses) with the
// three customer-name thirds (58.14% split equally).
type Mixture struct {
	comps   []Params
	weights []float64 // normalized, cumulative for sampling
	cum     []float64
}

// NewMixture builds a mixture from parallel slices of components and
// positive weights (weights are normalized internally).
func NewMixture(comps []Params, weights []float64) (*Mixture, error) {
	if len(comps) == 0 || len(comps) != len(weights) {
		return nil, fmt.Errorf("nurand: mixture needs equal non-empty components and weights")
	}
	var total float64
	for i, w := range weights {
		if w <= 0 {
			return nil, fmt.Errorf("nurand: mixture weight %d must be positive", i)
		}
		if err := comps[i].Validate(); err != nil {
			return nil, err
		}
		total += w
	}
	m := &Mixture{comps: append([]Params(nil), comps...)}
	m.weights = make([]float64, len(weights))
	m.cum = make([]float64, len(weights))
	var c float64
	for i, w := range weights {
		m.weights[i] = w / total
		c += m.weights[i]
		m.cum[i] = c
	}
	m.cum[len(m.cum)-1] = 1
	return m, nil
}

// CustomerMixture returns the paper's customer-relation access mixture over
// customer ordinals 1..3000 within one district: 41.86% NU(1023,1,3000)
// by customer-id and 58.14% split equally over the three name thirds.
//
// The weights derive from the transaction mix (Section 3): by-id accesses
// are 0.43·1 (New-Order) + (0.44+0.04)·0.4 (Payment/Order-Status by id)
// = 0.622 per transaction; by-name accesses are (0.44+0.04)·0.6·3 = 0.864;
// 0.622/1.486 = 41.86%.
func CustomerMixture() *Mixture {
	thirds := NameThirds()
	m, err := NewMixture(
		[]Params{CustomerID, thirds[0], thirds[1], thirds[2]},
		[]float64{0.4186, 0.5814 / 3, 0.5814 / 3, 0.5814 / 3},
	)
	if err != nil {
		panic(err)
	}
	return m
}

// Bounds returns the minimum X and maximum Y across components.
func (m *Mixture) Bounds() (lo, hi int64) {
	lo, hi = m.comps[0].X, m.comps[0].Y
	for _, c := range m.comps[1:] {
		if c.X < lo {
			lo = c.X
		}
		if c.Y > hi {
			hi = c.Y
		}
	}
	return lo, hi
}

// ExactPMF returns the exact mixture PMF over [lo, hi] = Bounds();
// pmf[i] is the probability of value lo+i.
func (m *Mixture) ExactPMF() []float64 {
	lo, hi := m.Bounds()
	pmf := make([]float64, hi-lo+1)
	for i, comp := range m.comps {
		cp := ExactPMF(comp)
		for j, p := range cp {
			pmf[comp.X-lo+int64(j)] += m.weights[i] * p
		}
	}
	return pmf
}

// MixGen samples from a mixture.
type MixGen struct {
	m *Mixture
	r *rng.RNG
	g []*Gen
}

// NewMixGen returns a sampler over the mixture.
func NewMixGen(m *Mixture, r *rng.RNG) *MixGen {
	gens := make([]*Gen, len(m.comps))
	for i, c := range m.comps {
		gens[i] = NewGen(c, r)
	}
	return &MixGen{m: m, r: r, g: gens}
}

// Next draws one value: first a component by weight, then a value from it.
func (g *MixGen) Next() int64 {
	u := g.r.Float64()
	for i, c := range g.m.cum {
		if u < c {
			return g.g[i].Next()
		}
	}
	return g.g[len(g.g)-1].Next()
}
