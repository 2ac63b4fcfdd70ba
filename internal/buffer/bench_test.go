package buffer

import (
	"testing"

	"tpccmodel/internal/rng"
)

// benchStream builds a skewed reference stream over a TPC-C-like page
// universe: 80% of accesses go to the hottest 20% of pages, approximating
// the NURand page-level skew that dominates the real kernel's input.
func benchStream(n int, universe int64) []int64 {
	r := rng.New(1993)
	hot := universe / 5
	if hot < 1 {
		hot = 1
	}
	out := make([]int64, n)
	for i := range out {
		if r.Bernoulli(0.8) {
			out[i] = r.Int63n(hot)
		} else {
			out[i] = hot + r.Int63n(universe-hot)
		}
	}
	return out
}

// BenchmarkDenseStackSim is the micro benchmark of the per-access hot
// path: stack distance plus MissCurve accumulation on a skewed stream.
func BenchmarkDenseStackSim(b *testing.B) {
	const universe = 50_000
	stream := benchStream(1<<18, universe)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := NewDenseStackSim(universe)
		var m MissCurve
		for _, ord := range stream {
			m.Add(s.Access(ord))
		}
	}
}
