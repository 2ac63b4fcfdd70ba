package sim

import (
	"sync"
	"testing"

	"tpccmodel/internal/workload"
)

// benchCurve is the macro-benchmark fixture: one curve configuration and
// its recorded trace, shared across iterations so the benchmarks time the
// kernel and the translation, not trace recording.
var benchCurve struct {
	once sync.Once
	cc   CurveConfig
	tr   *Trace
	err  error
}

func benchSetup(b *testing.B) (CurveConfig, *Trace) {
	b.Helper()
	benchCurve.once.Do(func() {
		cfg := workload.DefaultConfig(2, 1993)
		cc := CurveConfig{
			Workload:        cfg,
			Packing:         PackSequential,
			CapacitiesPages: []int64{256, 1024, 4096, 8192, 16384, 32768},
			WarmupTxns:      2_000,
			Batches:         3,
			BatchTxns:       6_000,
			Level:           0.90,
		}
		benchCurve.cc = cc
		benchCurve.tr, benchCurve.err = SharedTraces.Get(cfg, cc.txns())
	})
	if benchCurve.err != nil {
		b.Fatal(benchCurve.err)
	}
	return benchCurve.cc, benchCurve.tr
}

// BenchmarkRunCurve times one full stack-distance simulation cell. The
// untimed first run maps the shared trace, so the loop times the dense
// kernel alone.
func BenchmarkRunCurve(b *testing.B) {
	cc, _ := benchSetup(b)
	if _, err := RunCurve(cc); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunCurve(cc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMapPages times the one-off translation a sweep amortizes across
// its cells, for scale against BenchmarkRunCurve.
func BenchmarkMapPages(b *testing.B) {
	cc, tr := benchSetup(b)
	mappers := BuildMappers(cc.Workload.DB, cc.Packing, cc.Workload.Seed)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := tr.MapPages(mappers, cc.Workload.DB); err != nil {
			b.Fatal(err)
		}
	}
}
