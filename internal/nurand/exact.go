package nurand

import "math/bits"

// orPairCounter counts pairs (a, b) with 0 <= a <= A, 0 <= b <= B and
// a|b == w using a digit DP over the bits of the bounds: states track
// whether a and b are still "tight" against their bounds' prefixes.
type orPairCounter struct {
	aBound, bBound int64
	nbits          int
}

// count returns #{(a,b) : 0<=a<=aBound, 0<=b<=bBound, a|b == w}.
func (c orPairCounter) count(w int64) int64 {
	if c.bBound < 0 || c.aBound < 0 {
		return 0
	}
	// dp[ta][tb]: number of prefixes with a-tightness ta, b-tightness tb.
	var dp [2][2]int64
	dp[1][1] = 1
	for i := c.nbits - 1; i >= 0; i-- {
		var next [2][2]int64
		wbit := (w >> uint(i)) & 1
		abit0 := (c.aBound >> uint(i)) & 1
		bbit0 := (c.bBound >> uint(i)) & 1
		for ta := 0; ta < 2; ta++ {
			for tb := 0; tb < 2; tb++ {
				if dp[ta][tb] == 0 {
					continue
				}
				// Enumerate bit choices consistent with wbit.
				var choices [][2]int64
				if wbit == 0 {
					choices = [][2]int64{{0, 0}}
				} else {
					choices = [][2]int64{{0, 1}, {1, 0}, {1, 1}}
				}
				for _, ch := range choices {
					ab, bb := ch[0], ch[1]
					nta, ntb := ta, tb
					if ta == 1 {
						if ab > abit0 {
							continue
						}
						if ab < abit0 {
							nta = 0
						}
					}
					if tb == 1 {
						if bb > bbit0 {
							continue
						}
						if bb < bbit0 {
							ntb = 0
						}
					}
					next[nta][ntb] += dp[ta][tb]
				}
			}
		}
		dp = next
	}
	return dp[0][0] + dp[0][1] + dp[1][0] + dp[1][1]
}

// exactPMFDP computes the exact NU PMF via the digit DP in
// O(2^ceil(log2(max(A,y))) * bits) time, independent of (A+1)*(range).
func exactPMFDP(p Params) []float64 {
	n := p.Range()
	maxv := p.A
	if p.Y > maxv {
		maxv = p.Y
	}
	nbits := bits.Len64(uint64(maxv))
	counter := orPairCounter{aBound: p.A, bBound: p.Y, nbits: nbits}
	// Pairs with b in [x, y] = pairs with b <= y minus pairs with b <= x-1.
	var lowCounter *orPairCounter
	if p.X > 0 {
		lc := orPairCounter{aBound: p.A, bBound: p.X - 1, nbits: nbits}
		lowCounter = &lc
	}
	counts := make([]int64, n)
	maxOR := int64(1)<<uint(nbits) - 1
	for w := int64(0); w <= maxOR; w++ {
		c := counter.count(w)
		if lowCounter != nil {
			c -= lowCounter.count(w)
		}
		if c != 0 {
			counts[(w+p.C)%n] += c
		}
	}
	total := float64(p.A+1) * float64(n)
	pmf := make([]float64, n)
	for i, c := range counts {
		pmf[i] = float64(c) / total
	}
	return pmf
}
