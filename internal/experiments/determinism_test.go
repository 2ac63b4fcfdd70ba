package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tpccmodel/internal/model"
)

// regenGolden rewrites the checked-in golden TSVs from a serial render: `go test ./internal/experiments/ -run Corpus -regen-golden`
// (or `make regen-golden`). Regenerate ONLY when an intentional behaviour
// change alters the canonical sweep output, and say why in the commit.
var regenGolden = flag.Bool("regen-golden", false, "rewrite testdata/golden TSVs")

// goldenSeries lists the canonical sweep outputs pinned under
// testdata/golden/, in render order.
var goldenSeries = []string{
	"fig8", "fig9", "fig10", "policy-ablation",
	"response-validation", "page-size", "mix-sensitivity",
}

func goldenPath(name string) string {
	return filepath.Join("testdata", "golden", name+".tsv")
}

// renderAll runs the worker-count-sensitive experiments at the given worker
// count and renders each resulting series to its own TSV byte stream.
func renderAll(t testing.TB, workers int) map[string][]byte {
	t.Helper()
	opts := tinyOptions()
	opts.Workers = workers
	st := NewStudy(opts)
	sys := model.DefaultSystemParams()
	cost := model.DefaultCostModel()

	out := make(map[string][]byte, len(goldenSeries))
	emit := func(name string, s Series, err error) {
		if err != nil {
			t.Fatalf("workers=%d %s: %v", workers, name, err)
		}
		var buf bytes.Buffer
		if err := s.WriteTSV(&buf); err != nil {
			t.Fatal(err)
		}
		out[name] = buf.Bytes()
	}

	fig8, err := Fig8(st)
	emit("fig8", fig8, err)
	fig9, err := Fig9(st, sys)
	emit("fig9", fig9, err)
	fig10, err := Fig10(st, sys, cost)
	emit("fig10", fig10, err)
	abl, err := PolicyAblation(opts, 8, []string{"lru", "clock", "fifo"})
	emit("policy-ablation", abl, err)
	resp, err := ResponseValidation(st, sys, len(opts.BufferMB)/2, 4, []float64{0.3, 0.7})
	emit("response-validation", resp, err)
	pageOpts := opts
	pageOpts.BufferMB = []float64{4, 16}
	ps, err := PageSizeStudy(pageOpts)
	emit("page-size", ps, err)
	mix, err := MixSensitivity(opts, 8)
	emit("mix-sensitivity", mix, err)
	return out
}

// compareToGolden checks every rendered series byte for byte against its
// checked-in golden file.
func compareToGolden(t *testing.T, label string, got map[string][]byte) {
	t.Helper()
	for _, name := range goldenSeries {
		want, err := os.ReadFile(goldenPath(name))
		if err != nil {
			t.Fatalf("%s: reading golden (run `make regen-golden` after an intentional change): %v",
				name, err)
		}
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s: %s output differs from golden %s (%d vs %d bytes)",
				label, name, goldenPath(name), len(got[name]), len(want))
		}
	}
}

// TestGoldenCorpus pins the canonical tiny-scale sweep TSVs: a serial
// render must reproduce the checked-in files byte for byte on
// any machine (the determinism contract includes the platform). With
// -regen-golden it rewrites the corpus instead.
func TestGoldenCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tiny-scale sweeps")
	}
	got := renderAll(t, 1)
	if *regenGolden {
		if err := os.MkdirAll(filepath.Join("testdata", "golden"), 0o755); err != nil {
			t.Fatal(err)
		}
		for _, name := range goldenSeries {
			if err := os.WriteFile(goldenPath(name), got[name], 0o644); err != nil {
				t.Fatal(err)
			}
			fmt.Printf("wrote %s (%d bytes)\n", goldenPath(name), len(got[name]))
		}
		return
	}
	compareToGolden(t, "serial", got)
}

// TestGoldenDeterminismAcrossWorkerCounts is the serial-equivalence
// contract: every sweep experiment must emit TSVs byte-identical to the
// golden corpus regardless of the worker count, because results are
// collected by task index and each task derives its randomness from the
// root seed.
func TestGoldenDeterminismAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full tiny-scale sweeps")
	}
	for _, workers := range []int{2, 8} {
		compareToGolden(t, fmt.Sprintf("workers=%d", workers), renderAll(t, workers))
	}
}

// BenchmarkSweep times the replacement-policy ablation grid serially and at
// one worker per CPU; bench output documents the parallel speedup on the
// machine at hand. The shared trace is recorded once up front so the numbers
// measure sweep time, not trace recording.
func BenchmarkSweep(b *testing.B) {
	run := func(b *testing.B, workers int) {
		opts := tinyOptions()
		opts.Workers = workers
		if _, err := PolicyAblation(opts, 8, []string{"lru", "clock", "fifo"}); err != nil {
			b.Fatal(err) // warm the shared trace outside the timed loop
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := PolicyAblation(opts, 8, []string{"lru", "clock", "fifo"}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("workers=1", func(b *testing.B) { run(b, 1) })
	b.Run("workers=numcpu", func(b *testing.B) { run(b, 0) })
}
