// Package stats provides the statistics substrate for the TPC-C modeling
// study: Welford accumulators, batch-means confidence intervals (the paper
// uses 30 batches of 100,000 samples and reports 90% confidence intervals),
// Student-t quantiles, histograms, and Lorenz-curve skew analytics used to
// quantify "what fraction of the accesses go to what fraction of the data".
package stats

import (
	"errors"
	"fmt"
	"math"
)

// Welford accumulates a running mean and variance using Welford's
// numerically stable online algorithm.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add incorporates one sample.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// N returns the number of samples added.
func (w *Welford) N() int64 { return w.n }

// Mean returns the sample mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased sample variance (0 for fewer than 2 samples).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Merge combines another accumulator into w (parallel-merge formula).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// Interval is a symmetric confidence interval around a point estimate.
type Interval struct {
	Mean      float64
	HalfWidth float64
	Level     float64 // e.g. 0.90
	N         int64   // number of batches (or samples) behind the estimate
}

// Lo returns the lower bound of the interval.
func (iv Interval) Lo() float64 { return iv.Mean - iv.HalfWidth }

// Hi returns the upper bound of the interval.
func (iv Interval) Hi() float64 { return iv.Mean + iv.HalfWidth }

// RelativeHalfWidth returns HalfWidth/|Mean|, or +Inf for a zero mean with
// nonzero half-width, or 0 when both are zero. The paper requires this to be
// at most 5% at the 90% level for every reported miss rate.
func (iv Interval) RelativeHalfWidth() float64 {
	if iv.Mean == 0 {
		if iv.HalfWidth == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return iv.HalfWidth / math.Abs(iv.Mean)
}

// String renders the interval as "mean ± halfwidth (level%)".
func (iv Interval) String() string {
	return fmt.Sprintf("%.6g ± %.3g (%.0f%%)", iv.Mean, iv.HalfWidth, iv.Level*100)
}

// BatchMeans implements the method of batch means: samples are grouped into
// fixed-size batches, each batch contributes one mean, and the confidence
// interval is computed over the batch means with a Student-t quantile. The
// paper's configuration is 30 batches with a batch size of 100,000 samples.
type BatchMeans struct {
	batchSize int64
	cur       Welford
	batches   []float64
}

// NewBatchMeans creates a batch-means accumulator with the given batch size.
// batchSize must be positive.
func NewBatchMeans(batchSize int64) *BatchMeans {
	if batchSize <= 0 {
		panic("stats: batch size must be positive")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add incorporates one sample, closing a batch whenever batchSize samples
// have accumulated.
func (b *BatchMeans) Add(x float64) {
	b.cur.Add(x)
	if b.cur.N() == b.batchSize {
		b.batches = append(b.batches, b.cur.Mean())
		b.cur = Welford{}
	}
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int { return len(b.batches) }

// ErrTooFewBatches is returned when a confidence interval is requested with
// fewer than two completed batches.
var ErrTooFewBatches = errors.New("stats: need at least 2 completed batches")

// Interval returns the confidence interval over the completed batch means at
// the given confidence level (e.g. 0.90).
func (b *BatchMeans) Interval(level float64) (Interval, error) {
	k := len(b.batches)
	if k < 2 {
		return Interval{}, ErrTooFewBatches
	}
	var w Welford
	for _, m := range b.batches {
		w.Add(m)
	}
	t := TQuantile(level, k-1)
	hw := t * w.StdDev() / math.Sqrt(float64(k))
	return Interval{Mean: w.Mean(), HalfWidth: hw, Level: level, N: int64(k)}, nil
}

// Mean returns the grand mean over all completed batches (0 when none).
func (b *BatchMeans) Mean() float64 {
	if len(b.batches) == 0 {
		return 0
	}
	var w Welford
	for _, m := range b.batches {
		w.Add(m)
	}
	return w.Mean()
}

// Lag1Autocorrelation estimates the lag-1 autocorrelation of the batch
// means. Batch means are (approximately) independent when this is near
// zero; a large positive value means the batch size is too small and the
// confidence interval understates the true variance. The method of batch
// means rests on this diagnostic — the paper asserts its 100,000-sample
// batches achieve 5% relative half-widths, which presumes uncorrelated
// batches. Returns 0 for fewer than 3 batches.
func (b *BatchMeans) Lag1Autocorrelation() float64 {
	k := len(b.batches)
	if k < 3 {
		return 0
	}
	var w Welford
	for _, m := range b.batches {
		w.Add(m)
	}
	mean := w.Mean()
	var num, den float64
	for i, m := range b.batches {
		d := m - mean
		den += d * d
		if i > 0 {
			num += (b.batches[i-1] - mean) * d
		}
	}
	if den == 0 {
		return 0
	}
	return num / den
}

// BatchesIndependent reports whether the lag-1 autocorrelation is within
// the approximate 95% band for white noise, |r1| <= 2/sqrt(k). A false
// result suggests enlarging the batch size.
func (b *BatchMeans) BatchesIndependent() bool {
	k := len(b.batches)
	if k < 3 {
		return true
	}
	bound := 2 / math.Sqrt(float64(k))
	r1 := b.Lag1Autocorrelation()
	return r1 >= -bound && r1 <= bound
}

// TQuantile returns the two-sided Student-t critical value t_{(1+level)/2, df}.
// It uses an exact small-table lookup for the common cases and an
// asymptotic Cornish-Fisher expansion of the normal quantile elsewhere,
// accurate to better than 0.2% for df >= 3.
func TQuantile(level float64, df int) float64 {
	if df < 1 {
		panic("stats: df must be >= 1")
	}
	p := (1 + level) / 2
	z := NormalQuantile(p)
	if df > 200 {
		return z
	}
	// Cornish-Fisher expansion of the t quantile in terms of the normal
	// quantile (Abramowitz & Stegun 26.7.5).
	v := float64(df)
	z3 := z * z * z
	z5 := z3 * z * z
	z7 := z5 * z * z
	g1 := (z3 + z) / 4
	g2 := (5*z5 + 16*z3 + 3*z) / 96
	g3 := (3*z7 + 19*z5 + 17*z3 - 15*z) / 384
	return z + g1/v + g2/(v*v) + g3/(v*v*v)
}

// NormalQuantile returns the standard normal quantile Phi^{-1}(p) using the
// Acklam rational approximation (relative error < 1.15e-9).
func NormalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic("stats: quantile probability must be in (0,1)")
	}
	a := [6]float64{-3.969683028665376e+01, 2.209460984245205e+02,
		-2.759285104469687e+02, 1.383577518672690e+02,
		-3.066479806614716e+01, 2.506628277459239e+00}
	b := [5]float64{-5.447609879822406e+01, 1.615858368580409e+02,
		-1.556989798598866e+02, 6.680131188771972e+01,
		-1.328068155288572e+01}
	c := [6]float64{-7.784894002430293e-03, -3.223964580411365e-01,
		-2.400758277161838e+00, -2.549732539343734e+00,
		4.374664141464968e+00, 2.938163982698783e+00}
	d := [4]float64{7.784695709041462e-03, 3.224671290700398e-01,
		2.445134137142996e+00, 3.754408661907416e+00}
	const plow, phigh = 0.02425, 1 - 0.02425
	switch {
	case p < plow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > phigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		r := q * q
		return (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	}
}
