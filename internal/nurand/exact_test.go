package nurand

import (
	"math"
	"testing"
	"testing/quick"

	"tpccmodel/internal/stats"
)

// exactPMFBrute enumerates all input pairs directly: the oracle the digit
// DP behind ExactPMF is checked against.
func exactPMFBrute(p Params) []float64 {
	n := p.Range()
	counts := make([]int64, n)
	for a := int64(0); a <= p.A; a++ {
		for b := p.X; b <= p.Y; b++ {
			counts[((a|b)+p.C)%n]++
		}
	}
	total := float64(p.A+1) * float64(n)
	pmf := make([]float64, n)
	for i, c := range counts {
		pmf[i] = float64(c) / total
	}
	return pmf
}

// TestDPMatchesBruteForce property-tests the digit-DP exact PMF against
// direct enumeration over random small parameterizations.
func TestDPMatchesBruteForce(t *testing.T) {
	f := func(aRaw, xRaw, spanRaw, cRaw uint16) bool {
		p := Params{
			A: int64(aRaw%512) + 1,
			X: int64(xRaw % 200),
			Y: 0,
		}
		p.Y = p.X + int64(spanRaw%800) + 1
		p.C = int64(cRaw) % (p.A + 1)
		brute := exactPMFBrute(p)
		dp := exactPMFDP(p)
		for i := range brute {
			if math.Abs(brute[i]-dp[i]) > 1e-12 {
				t.Logf("%v: pmf[%d] brute %v != dp %v", p, i, brute[i], dp[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDPPaperParameters checks the DP path on the paper's real
// parameterizations: the PMF must be a distribution and match sampling.
func TestDPPaperParameters(t *testing.T) {
	for _, p := range []Params{ItemID, CustomerID} {
		pmf := ExactPMF(p)
		var sum float64
		for _, v := range pmf {
			if v < 0 {
				t.Fatalf("%v: negative probability", p)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("%v: PMF sums to %v", p, sum)
		}
	}
	// Monte Carlo cross-check of the DP on the item distribution. The
	// expected TV from pure sampling noise over a 100K-point support at
	// 5M samples is ~0.05, so 0.06 detects any systematic error.
	exact := ExactPMF(ItemID)
	sampled := SamplePMF(ItemID, 5_000_000, 11)
	if tv := stats.TotalVariation(exact, sampled); tv > 0.06 {
		t.Errorf("item PMF: TV(exact, sampled) = %v", tv)
	}
}

// TestStockSkewHeadlineNumbersExact verifies the paper's Section 3 headline
// skew numbers from the *exact* distribution: ~84% of accesses to the
// hottest ~20% of tuples, ~71% to 10%, ~39% to 2%.
func TestStockSkewHeadlineNumbersExact(t *testing.T) {
	l := stats.NewLorenz(ExactPMF(ItemID))
	cases := []struct {
		dataFrac, want, tol float64
	}{
		{0.20, 0.84, 0.03},
		{0.10, 0.71, 0.03},
		{0.02, 0.39, 0.03},
	}
	for _, c := range cases {
		got := l.AccessShareOfHottest(c.dataFrac)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("hottest %.0f%%: access share %.3f, paper says ~%.2f",
				c.dataFrac*100, got, c.want)
		}
	}
}

func TestOrPairCounterEdgeCases(t *testing.T) {
	// b bound negative: empty set.
	c := orPairCounter{aBound: 5, bBound: -1, nbits: 3}
	if got := c.count(3); got != 0 {
		t.Errorf("empty range count = %d", got)
	}
	// Exhaustive check on a tiny case.
	c = orPairCounter{aBound: 2, bBound: 3, nbits: 2}
	want := map[int64]int64{}
	for a := int64(0); a <= 2; a++ {
		for b := int64(0); b <= 3; b++ {
			want[a|b]++
		}
	}
	for w := int64(0); w < 4; w++ {
		if got := c.count(w); got != want[w] {
			t.Errorf("count(%d) = %d, want %d", w, got, want[w])
		}
	}
}

func BenchmarkExactPMFDPItem(b *testing.B) {
	for i := 0; i < b.N; i++ {
		exactPMFDP(ItemID)
	}
}
