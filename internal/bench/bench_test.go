package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

func TestSpeedFactor(t *testing.T) {
	if f := speedFactor(CalibRefMicros); f != 1 {
		t.Errorf("factor at the reference time = %v, want 1", f)
	}
	if a, b := speedFactor(800), speedFactor(400); b != 2*a {
		t.Errorf("halving the calibration time: factor %v -> %v, want doubled", a, b)
	}
}

// syntheticWindow is 40 segments of 500 transactions at 100 µs each on a
// machine running at reference speed.
func syntheticWindow() []segment {
	segs := make([]segment, 40)
	for i := range segs {
		segs[i] = segment{txns: 500, wallUS: 50_000, cpuUS: 50_000, calibUS: CalibRefMicros}
	}
	return segs
}

func TestStalledSegmentDoesNotMoveThroughput(t *testing.T) {
	segs := syntheticWindow()
	clean := summarise(segs, true)
	if got := tpmC(0.45, clean.perTxnUS); math.Abs(got-270_000) > 1e-6 {
		t.Fatalf("tpmC = %v, want 270000", got)
	}
	segs[7].wallUS += 8_700_000 // a log-buffer regrowth stalls one segment for 8.7 s
	segs[7].cpuUS += 8_700_000
	stalled := summarise(segs, true)
	if stalled.perTxnUS != clean.perTxnUS || stalled.cpuPerTxnUS != clean.cpuPerTxnUS {
		t.Errorf("stall moved the estimate: %v -> %v µs/txn, cpu %v -> %v", clean.perTxnUS, stalled.perTxnUS, clean.cpuPerTxnUS, stalled.cpuPerTxnUS)
	}
	if want := 8_750_000.0 / (40*50_000 + 8_700_000); math.Abs(stalled.stallShare-want) > 1e-9 {
		t.Errorf("stallShare = %v, want %v", stalled.stallShare, want)
	}
	if stalled.windowUS <= clean.windowUS {
		t.Error("the whole-window time must include the stall")
	}
}

func TestSlowMachineIsNormalisedAway(t *testing.T) {
	segs := syntheticWindow()
	for i := range segs { // the second half runs on a machine 25% slower
		if i >= 20 {
			segs[i].wallUS *= 1.25
			segs[i].cpuUS *= 1.25
			segs[i].calibUS *= 1.25
		}
	}
	if got := summarise(segs, true); math.Abs(got.perTxnUS-100) > 1e-9 || math.Abs(got.cpuPerTxnUS-100) > 1e-9 {
		t.Errorf("normalised = %v µs/txn, cpu %v, want 100", got.perTxnUS, got.cpuPerTxnUS)
	}
	// Device-bound wall time is left raw; CPU time is scaled all the same.
	if got := summarise(segs, false); math.Abs(got.perTxnUS-112.5) > 1e-9 || math.Abs(got.cpuPerTxnUS-100) > 1e-9 {
		t.Errorf("raw = %v µs/txn, cpu %v, want 112.5 and 100", got.perTxnUS, got.cpuPerTxnUS)
	}
}

func TestQuartileSpreadMatchesPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := QuartileSpread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if got := QuartileSpread([]float64{3, 1, 2}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1..3 = %v, want 1", got)
	}
	// statistics.quantiles([2, 4, 4, 5, 9], n=4) == [3.0, 4.0, 7.0]
	if got := QuartileSpread([]float64{2, 4, 4, 5, 9}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestInterquartileMean(t *testing.T) {
	l := latencies{1000, 1, 2, 3, 4, 5, 6, 7} // sorted: 1..7, 1000; middle half 3,4,5,6
	if got := l.iqm(); got != 4.5 {
		t.Errorf("iqm = %v, want 4.5", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestDeclarations checks the metric and workload tables against the limits
// BENCHMARK.json must keep, and the file itself against the tables.
func TestDeclarations(t *testing.T) {
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is malformed", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("%s: why is %d characters or not one line", w.Name, len(w.Why))
		}
		if w.Measured(DefaultSeconds)%w.SegTxns != 0 || w.Measured(1) < minMeasured {
			t.Errorf("%s: window %d / %d", w.Name, w.Measured(DefaultSeconds), w.Measured(1))
		}
	}
	setup := false
	for _, m := range EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v is malformed", m)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, o := range EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must have the largest bound, %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no setup_s in seconds, lower is better")
	}
	if n := len(PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "higher" && m.Better != "lower") {
			t.Errorf("per-layer metric %+v is malformed", m)
		}
	}

	want, err := Manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json to compare: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the tables; regenerate it with `tpcc-bench -manifest`")
	}
}

// smoke scales a workload down to seconds: one warehouse, a short warm-up,
// and for the device-bound ones short segments, so that only a few hundred
// transactions pay the 1 ms service times.
func smoke(w Workload) (Workload, int) {
	if w.Warehouses > 1 {
		w.Warehouses, w.BufferPages = 1, w.BufferPages/2
	}
	w.Warmup = 500
	if w.Normalised() {
		return w, 2000
	}
	w.SegTxns = 50
	return w, 200
}

func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	for _, full := range Workloads {
		wl, measured := smoke(full)
		for _, traced := range []bool{false, true} {
			list, title := EndToEnd, wl.Name+"/untraced"
			if traced {
				list, title = PerLayer, wl.Name+"/traced"
			}
			t.Run(title, func(t *testing.T) {
				var spans bytes.Buffer
				r, err := Run(wl, Options{Seed: DefaultSeed, Measured: measured, Trace: traced, Setups: 1, TraceOut: &spans})
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct() || r.Failed != 0 || r.Attempted != int64(measured) {
					t.Errorf("attempted %d, failed %d, problems %v", r.Attempted, r.Failed, r.Problems)
				}
				line, err := r.Line(list)
				if err != nil {
					t.Fatal(err)
				}
				var out struct {
					Correct   bool
					Attempted int64
					Failed    int64
					Metrics   map[string]struct {
						Value *float64
						Unit  string
					}
				}
				dec := json.NewDecoder(bytes.NewReader(line))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&out); err != nil {
					t.Fatalf("result line %s: %v", line, err)
				}
				if len(out.Metrics) != len(list) {
					t.Errorf("%d metrics emitted, %d declared", len(out.Metrics), len(list))
				}
				for _, m := range list {
					got, ok := out.Metrics[m.Name]
					if !ok || got.Value == nil || got.Unit != m.Unit {
						t.Errorf("metric %s: emitted %+v, declared unit %q", m.Name, got, m.Unit)
					}
				}
				if !traced {
					for _, m := range list {
						if r.Values[m.Name] <= 0 {
							t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, r.Values[m.Name])
						}
					}
					return
				}
				var sum float64
				for _, n := range []string{"db.self_share", "device.share", "wal.force_share", "wait.share"} {
					if v := r.Values[n]; v < -0.02 || v > 1.02 {
						t.Errorf("%s = %v, not a share", n, v)
					}
					sum += r.Values[n]
				}
				if math.Abs(sum-1) > 0.02 {
					t.Errorf("shares sum to %v", sum)
				}
				if wl.PageCost > 0 && r.Values["device.share"] < 0.05 {
					t.Errorf("device.share = %v on a workload that pays for pages", r.Values["device.share"])
				}
				if wl.ForceCost > 0 && (r.Values["wal.force_us_mean"] < 1000 || r.Values["wal.force_share"] < 0.05) {
					t.Errorf("force %v µs, share %v on a workload that pays for forces", r.Values["wal.force_us_mean"], r.Values["wal.force_share"])
				}
				if n := bytes.Count(spans.Bytes(), []byte("\n")); n < measured/2 {
					t.Errorf("%d spans written for %d transactions", n, measured)
				}
			})
		}
	}
}
