package bench

import (
	"math"
	"sort"
)

// segment is one slice of a measured window: a fixed number of
// transactions, timed from the instant its workers are released to the
// instant the last one finishes, preceded by one run of the calibration
// kernel.
type segment struct {
	txns    int
	wallUS  float64 // release to last finish
	cpuUS   float64 // process user+sys CPU inside the segment
	calibUS float64 // calibration kernel run just before it
}

// factor is the segment's speed factor, or 1 when the workload's time is
// device sleeps, which do not scale with CPU speed.
func (s segment) factor(normalise bool) float64 {
	if !normalise {
		return 1
	}
	return speedFactor(s.calibUS)
}

// Median returns the median of xs without reordering it (NaN when empty).
func Median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

// quantileSorted interpolates the p-quantile of an ascending slice.
func quantileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// QuartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method): the figure
// the acceptance check computes over repeated runs.
func QuartileSpread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := float64(i*(n+1) - j*4)
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := cut(2)
	if med == 0 {
		return math.Inf(1)
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

// timing summarises the segments of one window.
type timing struct {
	txns         int
	perTxnUS     float64 // median over segments of wall µs per transaction
	cpuPerTxnUS  float64 // median over segments of CPU µs per transaction
	windowUS     float64 // whole-window wall µs (segments only)
	stallShare   float64 // window time spent in segments > 3× the median
	factorP50    float64
	factorSpread float64 // (p90 − p10) / p50 of the speed factor
}

// summarise estimates steady per-transaction time from the median segment,
// so that a stall (a log-buffer regrowth, a descheduled worker) lands in
// stallShare and in the whole-window figure, not in the estimate. Wall time
// is multiplied by the speed factor only when normalise is set; CPU time
// always is, because it is CPU-bound on every workload.
func summarise(segs []segment, normalise bool) timing {
	var t timing
	if len(segs) == 0 {
		return t
	}
	per := make([]float64, len(segs))
	cpu := make([]float64, len(segs))
	factors := make([]float64, len(segs))
	for i, s := range segs {
		per[i] = s.wallUS * s.factor(normalise) / float64(s.txns)
		cpu[i] = s.cpuUS * s.factor(true) / float64(s.txns)
		factors[i] = s.factor(true)
		t.txns += s.txns
		t.windowUS += s.wallUS
	}
	t.perTxnUS = Median(per)
	t.cpuPerTxnUS = Median(cpu)
	for i, s := range segs {
		if per[i] > 3*t.perTxnUS {
			t.stallShare += s.wallUS
		}
	}
	t.stallShare /= t.windowUS
	sort.Float64s(factors)
	t.factorP50 = quantileSorted(factors, 0.5)
	t.factorSpread = (quantileSorted(factors, 0.9) - quantileSorted(factors, 0.1)) / t.factorP50
	return t
}

// tpmC turns a per-transaction time into New-Order commits per minute, given
// the New-Order share of acknowledged transactions.
func tpmC(newOrderShare, perTxnUS float64) float64 { return newOrderShare * 60e6 / perTxnUS }

// latencies holds response-time samples of one transaction type (or of all
// types together) in µs, already multiplied by their segment's factor.
type latencies []float64

// p returns the q-quantile. minMeasured keeps every window long enough that
// each reported percentile has at least ten samples beyond it.
func (l latencies) p(q float64) float64 {
	if !sort.Float64sAreSorted(l) {
		sort.Float64s(l)
	}
	return quantileSorted(l, q)
}

// iqm returns the interquartile mean: the mean of the samples between the
// first and the third quartile.
func (l latencies) iqm() float64 {
	if !sort.Float64sAreSorted(l) {
		sort.Float64s(l)
	}
	lo, hi := len(l)/4, len(l)-len(l)/4
	var sum float64
	for _, v := range l[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}
