package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
)

// TestLogBytesPerType pins how much log each transaction type writes: one
// worker, seed 1993, 6 000 transactions of the default mix on one warehouse,
// the log measured around every transaction. The counts repeat exactly, so
// the table is golden: log volume cannot creep back unnoticed. It pins the
// records each type writes beside its bytes: the records are the path
// length and do not depend on the encoding, so a change to what a
// transaction logs and a change to how a record is encoded move different
// columns. The log shows each type's bytes split into record headers and
// the images and spans they carry. EXPERIMENTS.md carries the same table
// beside the figures of the formats it replaced (full images: New-Order
// 7 866, Payment 1 929, Delivery 29 831 bytes per transaction; spans behind
// a fixed 37-byte header: 1 722.0, 276.8 and 5 766.4, on the same 6 000
// inputs).
func TestLogBytesPerType(t *testing.T) {
	d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 32768})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1993); err != nil {
		t.Fatal(err)
	}
	if n := d.log.Size(); n != 0 {
		t.Fatalf("the load logged %d bytes", n)
	}
	rn := NewRunner(d, 1993, tpcc.DefaultMix())
	var count, records, bytes, body [core.NumTxnTypes]int64
	var logged []core.TxnType // the type of each transaction that logged, in order
	for i := 0; i < 6000; i++ {
		size := d.log.Size()
		typ, err := rn.RunOne()
		if err != nil {
			t.Fatal(err)
		}
		count[typ]++
		if n := d.log.Size() - size; n > 0 {
			bytes[typ] += n
			logged = append(logged, typ)
		}
	}
	// One worker retries nothing, so each transaction that logged did so
	// under one txn id of its own, and its records lie together.
	recs, _, err := d.log.Scan()
	if err != nil {
		t.Fatal(err)
	}
	w := -1
	for i, r := range recs {
		if i == 0 || r.Txn != recs[i-1].Txn {
			if w++; w == len(logged) {
				t.Fatalf("records of more than the %d transactions that logged", len(logged))
			}
		}
		records[logged[w]]++
		body[logged[w]] += int64(len(r.Before) + len(r.After))
	}
	if w+1 != len(logged) {
		t.Fatalf("records of %d transactions, %d logged", w+1, len(logged))
	}
	want := [core.NumTxnTypes]struct{ count, records, bytes int64 }{
		core.TxnNewOrder:    {2565, 61560, 2980269},
		core.TxnPayment:     {2638, 13190, 410649},
		core.TxnOrderStatus: {238, 0, 0},
		core.TxnDelivery:    {291, 38121, 798868},
		core.TxnStockLevel:  {268, 0, 0},
	}
	var total, totalRecords int64
	for typ := range want {
		total += bytes[typ]
		totalRecords += records[typ]
		n := float64(count[typ])
		t.Logf("%-12s %5d transactions, %6d records, %8d log bytes: %8.1f per transaction, %6.1f headers + %6.1f data",
			core.TxnType(typ), count[typ], records[typ], bytes[typ], float64(bytes[typ])/n,
			float64(bytes[typ]-body[typ])/n, float64(body[typ])/n)
		if got := (struct{ count, records, bytes int64 }{count[typ], records[typ], bytes[typ]}); got != want[typ] {
			t.Errorf("%s: %d transactions logged %d records, %d bytes; golden %d, %d and %d",
				core.TxnType(typ), count[typ], records[typ], bytes[typ], want[typ].count, want[typ].records, want[typ].bytes)
		}
	}
	t.Logf("%-12s %5d transactions, %6d records, %8d log bytes: %8.1f per transaction", "mix", 6000, totalRecords, total, float64(total)/6000)
}
