package storage_test

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// stockQtyEnd ends the three leading fields of a stock row that
// Stock-Level reads (S_I_ID, S_W_ID, S_QUANTITY).
const stockQtyEnd = 12

// BenchmarkHeapRead prices one record read of a warehouse's stock relation
// — 100 000 306-byte rows in a pool that holds them all — at RIDs drawn by
// the benchmark's item-id NURand before the timer starts: the whole record
// (full) and Stock-Level's 12-byte projection (prefix).
func BenchmarkHeapRead(b *testing.B) {
	stockRecLen := tpcc.TupleLen[core.Stock]
	s, err := storage.NewStore(4096)
	if err != nil {
		b.Fatal(err)
	}
	slots := storage.SlotsPerPage(4096, stockRecLen)
	m := bufmgr.New(s, tpcc.StockPerWarehouse/slots+16)
	h, err := storage.NewHeapFile("stock", m, 4096, stockRecLen)
	if err != nil {
		b.Fatal(err)
	}
	rec := make([]byte, stockRecLen)
	rids := make([]storage.RID, tpcc.StockPerWarehouse)
	for i := range rids {
		rec[0], rec[1] = byte(i), byte(i>>8)
		if rids[i], err = h.Insert(rec); err != nil {
			b.Fatal(err)
		}
	}
	gen := nurand.NewGen(nurand.ItemID, rng.New(7))
	drawn := make([]storage.RID, 1<<16)
	for i := range drawn {
		drawn[i] = rids[gen.Next()-1]
	}
	for _, bc := range []struct {
		name string
		n    int
	}{{"full", stockRecLen}, {"prefix", stockQtyEnd}} {
		b.Run(bc.name, func(b *testing.B) {
			out := make([]byte, bc.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := h.Read(drawn[i&(len(drawn)-1)], out); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	if st := m.Stats(); st.Evicts != 0 {
		b.Fatalf("the stock heap did not stay resident: %d evictions", st.Evicts)
	}
}
