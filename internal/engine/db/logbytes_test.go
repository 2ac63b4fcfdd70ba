package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
)

// TestLogBytesPerType pins how much log each transaction type writes: one
// worker, seed 1993, 6 000 transactions of the default mix on one warehouse,
// the log measured around every transaction. The counts repeat exactly, so
// the table is golden: log volume cannot creep back unnoticed. EXPERIMENTS.md
// carries the same table beside the figures of the full-image format it
// replaced (New-Order 7 866, Payment 1 929, Delivery 29 831 bytes per
// transaction on the same 6 000 inputs).
func TestLogBytesPerType(t *testing.T) {
	d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 32768})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1993); err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(d, 1993, tpcc.DefaultMix())
	var count, bytes [core.NumTxnTypes]int64
	for i := 0; i < 6000; i++ {
		size := d.log.Size()
		typ, err := rn.RunOne()
		if err != nil {
			t.Fatal(err)
		}
		count[typ]++
		bytes[typ] += d.log.Size() - size
	}
	want := [core.NumTxnTypes]struct{ count, bytes int64 }{
		core.TxnNewOrder:    {2565, 4909430},
		core.TxnPayment:     {2638, 835682},
		core.TxnOrderStatus: {238, 0},
		core.TxnDelivery:    {291, 1982991},
		core.TxnStockLevel:  {268, 0},
	}
	var total int64
	for typ := range want {
		total += bytes[typ]
		t.Logf("%-12s %5d transactions, %8d log bytes, %8.1f per transaction",
			core.TxnType(typ), count[typ], bytes[typ], float64(bytes[typ])/float64(count[typ]))
		if count[typ] != want[typ].count || bytes[typ] != want[typ].bytes {
			t.Errorf("%s: %d transactions logged %d bytes, golden %d and %d",
				core.TxnType(typ), count[typ], bytes[typ], want[typ].count, want[typ].bytes)
		}
	}
	t.Logf("%-12s %5d transactions, %8d log bytes, %8.1f per transaction", "mix", 6000, total, float64(total)/6000)
}
