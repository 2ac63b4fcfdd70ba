package sim

import (
	"fmt"
	"math"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
	"tpccmodel/internal/workload"
)

func smallCurveConfig(warehouses int, packing Packing) CurveConfig {
	return CurveConfig{
		Workload:        workload.DefaultConfig(warehouses, 42),
		Packing:         packing,
		CapacitiesPages: []int64{256, 1024, 4096, 16384},
		WarmupTxns:      2000,
		Batches:         5,
		BatchTxns:       2000,
		Level:           0.90,
	}
}

func TestParsePacking(t *testing.T) {
	for _, s := range []string{"sequential", "optimized", "shuffled"} {
		p, err := ParsePacking(s)
		if err != nil || p.String() != s {
			t.Errorf("ParsePacking(%q) = %v, %v", s, p, err)
		}
	}
	if _, err := ParsePacking("bogus"); err == nil {
		t.Error("bogus packing should fail")
	}
}

func TestBuildMappersCoversAllRelations(t *testing.T) {
	db := tpcc.Config{Warehouses: 2, PageSize: 4096}
	for _, p := range []Packing{PackSequential, PackOptimized, PackShuffled} {
		m := BuildMappers(db, p, 1)
		for _, rel := range core.Relations() {
			if m[rel] == nil {
				t.Fatalf("%v: no mapper for %s", p, rel)
			}
			if pg := m[rel].Page(0); pg < 0 {
				t.Errorf("%v/%s: Page(0) = %d", p, rel, pg)
			}
		}
	}
}

func TestCurveConfigValidate(t *testing.T) {
	good := smallCurveConfig(1, PackSequential)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.CapacitiesPages = nil
	if err := bad.Validate(); err == nil {
		t.Error("no capacities should fail")
	}
	bad = good
	bad.CapacitiesPages = []int64{0}
	if err := bad.Validate(); err == nil {
		t.Error("zero capacity should fail")
	}
	bad = good
	bad.WarmupTxns = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative warmup should fail")
	}
	bad = good
	bad.Batches = 1
	if err := bad.Validate(); err == nil {
		t.Error("single batch should fail")
	}
	bad = good
	bad.Level = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad level should fail")
	}
}

func TestRunCurveBasics(t *testing.T) {
	res, err := RunCurve(smallCurveConfig(1, PackSequential))
	if err != nil {
		t.Fatal(err)
	}
	// Warehouse and district must have ~zero miss rates at any size (the
	// paper: they always fit in the buffer).
	for _, rel := range []core.Relation{core.Warehouse, core.District} {
		if mr := res.MissRate(rel, 256); mr > 0.01 {
			t.Errorf("%s miss rate %v, want ~0", rel, mr)
		}
	}
	// Miss rates decrease with buffer size.
	for _, rel := range []core.Relation{core.Stock, core.Customer} {
		prev := 1.1
		for _, c := range res.Caps {
			mr := res.MissRate(rel, c)
			if mr > prev+1e-12 {
				t.Errorf("%s miss rate not monotone at %d pages", rel, c)
			}
			prev = mr
		}
	}
	// Stock is NURand-skewed, so a healthy buffer captures hot pages:
	// miss rate at 16384 pages (64MB) must be well below 1 for a single
	// warehouse (7693 stock pages in total).
	if mr := res.MissRate(core.Stock, 16384); mr > 0.05 {
		t.Errorf("stock miss rate at 64MB = %v for 1 warehouse", mr)
	}
}

func TestRunCurveCIs(t *testing.T) {
	res, err := RunCurve(smallCurveConfig(1, PackSequential))
	if err != nil {
		t.Fatal(err)
	}
	iv, err := res.MissRateCI(core.Stock, 1)
	if err != nil {
		t.Fatal(err)
	}
	if iv.N != 5 {
		t.Errorf("CI over %d batches, want 5", iv.N)
	}
	if iv.Mean <= 0 || iv.Mean >= 1 {
		t.Errorf("stock miss rate mean %v implausible", iv.Mean)
	}
	// The CI mean and the full-resolution curve should agree closely
	// (same accesses, same predicate).
	curve := res.MissRate(core.Stock, res.Caps[1])
	if math.Abs(iv.Mean-curve) > 0.02 {
		t.Errorf("batch-mean %v vs curve %v at same capacity", iv.Mean, curve)
	}
}

func TestBatchDiagnostics(t *testing.T) {
	res, err := RunCurve(smallCurveConfig(1, PackSequential))
	if err != nil {
		t.Fatal(err)
	}
	lag1, _ := res.BatchDiagnostics(core.Stock, 1)
	if lag1 < -1 || lag1 > 1 {
		t.Errorf("lag-1 autocorrelation out of [-1,1]: %v", lag1)
	}
	// With only 5 batches the white-noise band is wide (~0.89); the
	// stock miss rates should not be pathologically trending.
	if lag1 > 0.95 {
		t.Errorf("stock batch means look like a trend (r1=%v); batch size too small", lag1)
	}
}

// TestOptimizedBeatsSequential reproduces the paper's central Figure 8
// result in miniature: optimized packing yields lower miss rates for the
// skewed relations at intermediate buffer sizes.
func TestOptimizedBeatsSequential(t *testing.T) {
	seqRes, err := RunCurve(smallCurveConfig(1, PackSequential))
	if err != nil {
		t.Fatal(err)
	}
	optRes, err := RunCurve(smallCurveConfig(1, PackOptimized))
	if err != nil {
		t.Fatal(err)
	}
	// At an intermediate size (4096 pages = 16MB for 1 warehouse) the
	// skewed relations benefit materially.
	for _, rel := range []core.Relation{core.Stock, core.Customer} {
		seq := seqRes.MissRate(rel, 4096)
		opt := optRes.MissRate(rel, 4096)
		if opt >= seq {
			t.Errorf("%s: optimized %.4f should beat sequential %.4f", rel, opt, seq)
		}
	}
}

func TestTxnRelMissRates(t *testing.T) {
	res, err := RunCurve(smallCurveConfig(1, PackSequential))
	if err != nil {
		t.Fatal(err)
	}
	// New-Order touches stock; Stock-Level touches stock via the join;
	// Payment never touches stock.
	if res.TxnRelAccesses(core.TxnNewOrder, core.Stock) == 0 {
		t.Error("New-Order should access stock")
	}
	if res.TxnRelAccesses(core.TxnStockLevel, core.Stock) == 0 {
		t.Error("Stock-Level should access stock")
	}
	if got := res.TxnRelAccesses(core.TxnPayment, core.Stock); got != 0 {
		t.Errorf("Payment accessed stock %d times", got)
	}
	if mr := res.TxnRelMissRate(core.TxnPayment, core.Stock, 0); mr != 0 {
		t.Errorf("miss rate for untouched relation = %v", mr)
	}
	// Stock-Level's stock accesses are for recently ordered items, but
	// under a small buffer they can still miss; rate must be in [0,1].
	mr := res.TxnRelMissRate(core.TxnStockLevel, core.Stock, 0)
	if mr < 0 || mr > 1 {
		t.Errorf("stock-level stock miss rate = %v", mr)
	}
	// Larger buffers can only help.
	last := len(res.Caps) - 1
	if res.TxnRelMissRate(core.TxnStockLevel, core.Stock, last) > mr+1e-9 {
		t.Error("txn-rel miss rate should not increase with capacity")
	}
}

// TestRecencyLocality checks the paper's Table 3 claim that P() accesses
// (tuples recently placed in the buffer by New-Order) enjoy better hit
// rates: order-line accesses by Delivery should hit more often than stock
// accesses by New-Order at the same modest buffer size.
func TestRecencyLocality(t *testing.T) {
	res, err := RunCurve(smallCurveConfig(1, PackSequential))
	if err != nil {
		t.Fatal(err)
	}
	delOL := res.TxnRelMissRate(core.TxnDelivery, core.OrderLine, 2)
	noStock := res.TxnRelMissRate(core.TxnNewOrder, core.Stock, 2)
	if delOL >= noStock {
		t.Errorf("Delivery order-line miss %.4f should be below New-Order stock miss %.4f",
			delOL, noStock)
	}
}

// TestRunDirectMatchesCurveAtCapacity is the stack-distance kernel's
// oracle: a direct LRU list (no stack distances, no page ordinals, the
// tuple stream mapped per access) must see exactly the misses RunCurve
// derives from distances, by LRU's inclusion property, for every packing,
// both page sizes, every evaluation capacity and every relation.
func TestRunDirectMatchesCurveAtCapacity(t *testing.T) {
	caps := []int64{64, 512, 2048, 8192}
	for _, pageSize := range []int{4096, 8192} {
		for _, p := range []Packing{PackSequential, PackOptimized, PackShuffled} {
			wl := workload.DefaultConfig(1, 77)
			wl.DB.PageSize = pageSize
			curve, err := RunCurve(CurveConfig{
				Workload: wl, Packing: p, CapacitiesPages: caps,
				WarmupTxns: 1000, Batches: 4, BatchTxns: 1500, Level: 0.9,
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, pages := range caps {
				label := fmt.Sprintf("%s/%dB/%d pages", p, pageSize, pages)
				direct, err := Run(Config{
					Workload: wl, Packing: p, Policy: "lru", BufferPages: pages,
					WarmupTxns: 1000, Batches: 4, BatchTxns: 1500, Level: 0.9,
				})
				if err != nil {
					t.Fatal(err)
				}
				var overallMisses int64
				for rel := core.Relation(0); rel < core.NumRelations; rel++ {
					want := direct.PerRelation[rel]
					var misses int64
					for typ := range curve.txnRelAcc {
						misses += curve.txnRelAcc[typ][rel] - curve.txnRelHits[typ][rel][i]
					}
					overallMisses += misses
					if acc := curve.RelAccesses(rel); acc != want.Accesses || misses != want.Misses {
						t.Fatalf("%s %s: curve %d misses of %d, direct LRU %d of %d",
							label, rel, misses, acc, want.Misses, want.Accesses)
					}
					if want.Accesses == 0 {
						continue
					}
					ci, err := curve.MissRateCI(rel, i)
					if err != nil {
						t.Fatalf("%s %s: %v", label, rel, err)
					}
					if math.Abs(ci.Mean-want.CI.Mean) > 1e-12 || math.Abs(ci.HalfWidth-want.CI.HalfWidth) > 1e-12 {
						t.Fatalf("%s %s: curve CI %+v, direct LRU CI %+v", label, rel, ci, want.CI)
					}
				}
				if curve.Overall.Accesses() != direct.Overall.Accesses || overallMisses != direct.Overall.Misses {
					t.Fatalf("%s overall: curve %d misses of %d, direct LRU %d of %d", label,
						overallMisses, curve.Overall.Accesses(), direct.Overall.Misses, direct.Overall.Accesses)
				}
				if d, c := direct.Overall.MissRate(), curve.Overall.MissRate(pages); math.Abs(d-c) > 1e-12 {
					t.Fatalf("%s overall: curve miss rate %v, direct LRU %v", label, c, d)
				}
			}
		}
	}
}

func TestRunDirectPolicies(t *testing.T) {
	wl := workload.DefaultConfig(1, 5)
	for _, policy := range []string{"lru", "clock", "2q"} {
		res, err := Run(Config{
			Workload: wl, Packing: PackSequential, Policy: policy,
			BufferPages: 1024, WarmupTxns: 500, Batches: 3, BatchTxns: 800, Level: 0.9,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		if res.Overall.Accesses == 0 {
			t.Fatalf("%s: no accesses recorded", policy)
		}
		mr := res.Overall.MissRate()
		if mr <= 0 || mr >= 1 {
			t.Errorf("%s: overall miss rate %v implausible", policy, mr)
		}
	}
	if _, err := Run(Config{
		Workload: wl, Packing: PackSequential, Policy: "bogus",
		BufferPages: 10, Batches: 2, BatchTxns: 10, Level: 0.9,
	}); err == nil {
		t.Error("bogus policy should fail")
	}
}

func TestPagesForBytes(t *testing.T) {
	if got := PagesForBytes(52*1024*1024, 4096); got != 13312 {
		t.Errorf("52MB = %d pages, want 13312", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("zero page size should panic")
		}
	}()
	PagesForBytes(100, 0)
}

func TestConfigValidate(t *testing.T) {
	good := Config{
		Workload: workload.DefaultConfig(1, 1), Packing: PackSequential,
		Policy: "lru", BufferPages: 10, Batches: 2, BatchTxns: 5, Level: 0.9,
	}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.BufferPages = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero buffer should fail")
	}
}
