package sim

import (
	"testing"

	"tpccmodel/internal/workload"
)

func testCurveConfig(t *testing.T, p Packing, pageSize int) (CurveConfig, *Trace) {
	t.Helper()
	cfg := workload.DefaultConfig(1, 11)
	cfg.DB.PageSize = pageSize
	cc := CurveConfig{
		Workload:        cfg,
		Packing:         p,
		CapacitiesPages: []int64{64, 512, 2048, 8192},
		WarmupTxns:      500,
		Batches:         3,
		BatchTxns:       1500,
		Level:           0.90,
	}
	tr, err := RecordTrace(cfg, cc.WarmupTxns+int64(cc.Batches)*cc.BatchTxns)
	if err != nil {
		t.Fatal(err)
	}
	return cc, tr
}

// TestMapPagesOrdinalSpace checks the flat ordinal layout: static-relation
// ordinals stay inside their schema-computed ranges, growing-relation
// ordinals start at the static total, and the universe bounds everything.
func TestMapPagesOrdinalSpace(t *testing.T) {
	cc, tr := testCurveConfig(t, PackSequential, 4096)
	mappers := BuildMappers(cc.Workload.DB, PackSequential, cc.Workload.Seed)
	mt, err := tr.MapPages(mappers, cc.Workload.DB)
	if err != nil {
		t.Fatal(err)
	}
	bases, staticTotal := cc.Workload.DB.PageOrdinalBases()
	if mt.universe < staticTotal {
		t.Fatalf("universe %d < static total %d", mt.universe, staticTotal)
	}
	if int64(len(mt.pages)) != tr.Accesses() {
		t.Fatalf("mapped %d accesses, trace has %d", len(mt.pages), tr.Accesses())
	}
	for k, rel := range tr.rels {
		ord := int64(mt.pages[k])
		if ord < 0 || ord >= mt.universe {
			t.Fatalf("access %d: ordinal %d outside [0, %d)", k, ord, mt.universe)
		}
		if base := bases[rel]; base >= 0 {
			span := cc.Workload.DB.PackedPageSpan(rel)
			if ord < base || ord >= base+span {
				t.Fatalf("access %d: static %s ordinal %d outside [%d, %d)",
					k, rel, ord, base, base+span)
			}
		} else if ord < staticTotal {
			t.Fatalf("access %d: growing %s ordinal %d inside static range [0, %d)",
				k, rel, ord, staticTotal)
		}
	}
}

// TestGetMappedMemoizes checks that the cache returns one shared mapped
// trace per (workload, packing, page size) and distinct ones across
// packings and page sizes.
func TestGetMappedMemoizes(t *testing.T) {
	cache := NewTraceCache()
	cfg := workload.DefaultConfig(1, 5)
	const txns = 300

	a, err := cache.GetMapped(cfg, txns, PackSequential)
	if err != nil {
		t.Fatal(err)
	}
	b, err := cache.GetMapped(cfg, txns, PackSequential)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same key returned distinct mapped traces")
	}
	c, err := cache.GetMapped(cfg, txns, PackOptimized)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different packings shared a mapped trace")
	}
	cfg8 := cfg
	cfg8.DB.PageSize = 8192
	d, err := cache.GetMapped(cfg8, txns, PackSequential)
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Error("different page sizes shared a mapped trace")
	}
	if a.trace != d.trace {
		t.Error("page sizes must share the underlying tuple trace")
	}
}
