package bench

import "time"

// The calibration kernel is a fixed amount of work of the three kinds the
// engine's transactions are made of: register arithmetic, dependent loads
// from a table that fits the second-level cache (index and lock-table
// descents), and 4 KB block copies (heap pages, log images). It is run
// before every segment; the ratio of its reference duration to its measured
// duration is the segment's speed factor, which turns a CPU-bound time taken
// on a momentarily slow (or fast) machine into the time the reference
// machine would have taken. A register-only kernel over-corrects: a busy
// neighbour slows it by more than it slows the engine.
//
// The kernel belongs to the benchmark and is frozen with it: changing any
// constant here re-bases every normalised metric.
const (
	calibALUIters  = 400_000
	calibChaseHops = 100_000
	calibCopies    = 1_000
	// CalibRefMicros is the kernel's duration on the sandbox the baseline
	// was taken on.
	CalibRefMicros = 1280.0
)

var (
	// calibChase is one cycle through all its entries, so every load
	// depends on the one before.
	calibChase [1 << 15]uint32
	calibSrc   [4 << 20]byte
	calibDst   [4096]byte
	// calibSink keeps the kernel's result alive so no loop is eliminated.
	calibSink uint64
)

func init() {
	// Sattolo's shuffle with a fixed linear congruential generator.
	for i := range calibChase {
		calibChase[i] = uint32(i)
	}
	s := uint64(1993)
	for i := len(calibChase) - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int((s >> 33) % uint64(i))
		calibChase[i], calibChase[j] = calibChase[j], calibChase[i]
	}
	for i := range calibSrc {
		calibSrc[i] = byte(i)
	}
}

func calibKernel() uint64 {
	var x, acc uint64
	for i := 0; i < calibALUIters; i++ { // splitmix64, rounds independent
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		acc += z ^ (z >> 31)
	}
	at := uint32(0)
	for i := 0; i < calibChaseHops; i++ {
		at = calibChase[at]
	}
	for i := 0; i < calibCopies; i++ {
		off := (i * 4096 * 7) % (len(calibSrc) - 4096)
		copy(calibDst[:], calibSrc[off:off+4096])
		acc += uint64(calibDst[i%4096])
	}
	return acc + uint64(at)
}

// calibrate runs the kernel twice and returns the shorter duration in
// microseconds: the first run also brings the processor out of whatever idle
// state a device sleep left it in, and one preemption cannot inflate both.
func calibrate() float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 2; i++ {
		t0 := time.Now()
		calibSink += calibKernel()
		best = min(best, time.Since(t0))
	}
	return float64(best.Nanoseconds()) / 1e3
}

// speedFactor converts a calibration time into the factor a CPU-bound
// duration is multiplied by: halving calibUS doubles the factor.
func speedFactor(calibUS float64) float64 { return CalibRefMicros / calibUS }
