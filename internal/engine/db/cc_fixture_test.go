package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// The anomaly battery needs precisely interleaved multi-transaction
// schedules, which the monolithic Session procedures cannot express. The
// tests in cc_anomaly_test.go therefore drive raw txns over a hand-built
// fixture — tiny enough to load in microseconds, so the whole battery
// runs under `-short -race`.

// tinyDistricts is the fixture's district count (all under warehouse 0,
// with one customer and one stock row per district).
const tinyDistricts = 8

// openTiny opens a 1-warehouse DB in the given CC mode and hand-loads a
// minimal committed row set: warehouse 0 (YTD 0), districts (0,0..7)
// (YTD 0, NextOID 1), customer 0 and stock row for item d in each.
func openTiny(t *testing.T, cc CCMode) *DB {
	t.Helper()
	return openTinyOn(t, cc, 256, nil)
}

// openTinyOn is openTiny with a pool of the given number of frames over the
// given device (nil = a private MemDisk).
func openTinyOn(t *testing.T, cc CCMode, bufferPages int, disk storage.DiskIO) *DB {
	t.Helper()
	d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: bufferPages, CC: cc}, Options{Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	tx := d.NewSession().begin()
	buf := make([]byte, tpcc.TupleLen[core.Customer])

	ins := func(rel core.Relation, key uint64, g *guardedTree, n int) {
		t.Helper()
		if _, err := tx.insertKeyed(rel, g, key, buf[:n]); err != nil {
			t.Fatal(err)
		}
	}

	w := WarehouseRec{ID: 0}
	w.Marshal(buf[:tpcc.TupleLen[core.Warehouse]])
	ins(core.Warehouse, 0, d.warehouseIdx, tpcc.TupleLen[core.Warehouse])
	for dist := int64(0); dist < tinyDistricts; dist++ {
		dr := DistrictRec{ID: uint32(dist), NextOID: 1}
		dr.Marshal(buf[:tpcc.TupleLen[core.District]])
		ins(core.District, index.KeyWD(0, dist), d.districtIdx, tpcc.TupleLen[core.District])

		cr := CustomerRec{DID: uint32(dist), CreditLimit: 50000}
		cr.Marshal(buf[:tpcc.TupleLen[core.Customer]])
		ins(core.Customer, index.KeyWDC(0, dist, 0), d.customerIdx, tpcc.TupleLen[core.Customer])

		sr := StockRec{IID: uint32(dist), Quantity: 100}
		sr.Marshal(buf[:tpcc.TupleLen[core.Stock]])
		ins(core.Stock, index.KeyWI(0, dist), d.stockIdx, tpcc.TupleLen[core.Stock])
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	return d
}

// custKey/distKey are the fixture's row keys.
func custKey(dist int64) uint64 { return index.KeyWDC(0, dist, 0) }
func distKey(dist int64) uint64 { return index.KeyWD(0, dist) }

// readCustomer snap-reads the fixture customer in dist under tx.
func tinyReadCustomer(t *testing.T, tx *txn, dist int64) (CustomerRec, bool) {
	t.Helper()
	key := custKey(dist)
	rid, ok := tx.d.customerIdx.get(key)
	if !ok {
		t.Fatalf("fixture customer (0,%d,0) missing from index", dist)
	}
	buf := make([]byte, tpcc.TupleLen[core.Customer])
	live, err := tx.snapRead(core.Customer, key, storage.UnpackRID(rid), buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec CustomerRec
	if live {
		rec.Unmarshal(buf)
	}
	return rec, live
}

// writeCustomer rewrites the fixture customer in dist under tx (current
// read under the exclusive lock, then store). Returns the engine
// error unrolled — callers assert on conflicts.
func tinyWriteCustomer(tx *txn, dist int64, mut func(*CustomerRec)) error {
	r, err := tx.fetch(core.Customer, tx.d.customerIdx, custKey(dist))
	if err != nil {
		return err
	}
	var rec CustomerRec
	rec.Unmarshal(r.cur)
	mut(&rec)
	rec.Marshal(r.next)
	return tx.store(r)
}

// readDistrict / writeDistrict mirror the customer helpers.
func tinyReadDistrict(t *testing.T, tx *txn, dist int64) (DistrictRec, bool) {
	t.Helper()
	key := distKey(dist)
	rid, ok := tx.d.districtIdx.get(key)
	if !ok {
		t.Fatalf("fixture district (0,%d) missing from index", dist)
	}
	buf := make([]byte, tpcc.TupleLen[core.District])
	live, err := tx.snapRead(core.District, key, storage.UnpackRID(rid), buf)
	if err != nil {
		t.Fatal(err)
	}
	var rec DistrictRec
	if live {
		rec.Unmarshal(buf)
	}
	return rec, live
}

func tinyWriteDistrict(tx *txn, dist int64, mut func(*DistrictRec)) error {
	r, err := tx.fetch(core.District, tx.d.districtIdx, distKey(dist))
	if err != nil {
		return err
	}
	var rec DistrictRec
	rec.Unmarshal(r.cur)
	mut(&rec)
	rec.Marshal(r.next)
	return tx.store(r)
}

// writeWarehouse rewrites warehouse 0 under tx.
func writeWarehouse(tx *txn, mut func(*WarehouseRec)) error {
	r, err := tx.fetch(core.Warehouse, tx.d.warehouseIdx, 0)
	if err != nil {
		return err
	}
	var rec WarehouseRec
	rec.Unmarshal(r.cur)
	mut(&rec)
	rec.Marshal(r.next)
	return tx.store(r)
}

// readWarehouse snap-reads warehouse 0 under tx.
func readWarehouse(t *testing.T, tx *txn) WarehouseRec {
	t.Helper()
	rid, ok := tx.d.warehouseIdx.get(0)
	if !ok {
		t.Fatal("fixture warehouse 0 missing from index")
	}
	buf := make([]byte, tpcc.TupleLen[core.Warehouse])
	live, err := tx.snapRead(core.Warehouse, 0, storage.UnpackRID(rid), buf)
	if err != nil {
		t.Fatal(err)
	}
	if !live {
		t.Fatal("fixture warehouse 0 not visible")
	}
	var rec WarehouseRec
	rec.Unmarshal(buf)
	return rec
}
