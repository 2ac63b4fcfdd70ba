package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// newLoaded returns a loaded single-warehouse database.
func newLoaded(t testing.TB, bufferPages int) *DB {
	t.Helper()
	d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: bufferPages})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}
	return d
}

func readDistrict(t *testing.T, d *DB, w, dist int64) DistrictRec {
	t.Helper()
	rid, ok := d.districtIdx.get(index.KeyWD(w, dist))
	if !ok {
		t.Fatalf("no district (%d,%d)", w, dist)
	}
	buf := make([]byte, tpcc.TupleLen[core.District])
	if err := d.heaps[core.District].Read(storage.UnpackRID(rid), buf); err != nil {
		t.Fatal(err)
	}
	var rec DistrictRec
	rec.Unmarshal(buf)
	return rec
}

func readCustomer(t *testing.T, d *DB, w, dist, c int64) CustomerRec {
	t.Helper()
	rid, ok := d.customerIdx.get(index.KeyWDC(w, dist, c))
	if !ok {
		t.Fatalf("no customer (%d,%d,%d)", w, dist, c)
	}
	buf := make([]byte, tpcc.TupleLen[core.Customer])
	if err := d.heaps[core.Customer].Read(storage.UnpackRID(rid), buf); err != nil {
		t.Fatal(err)
	}
	var rec CustomerRec
	rec.Unmarshal(buf)
	return rec
}

func TestLoadCounts(t *testing.T) {
	d := newLoaded(t, 1<<18)
	if err := d.VerifyCounts(); err != nil {
		t.Fatal(err)
	}
	// Districts start with NextOID = 3000.
	rec := readDistrict(t, d, 0, 3)
	if rec.NextOID != 3000 {
		t.Errorf("NextOID = %d, want 3000", rec.NextOID)
	}
}

func TestRecordLayoutsMatchTable1(t *testing.T) {
	// Marshal panics if any record layout drifts from Table 1; a
	// round-trip also exercises Unmarshal symmetry.
	var w WarehouseRec
	w.ID, w.TaxBP, w.YTDCents = 3, 150, 12345
	buf := make([]byte, tpcc.TupleLen[core.Warehouse])
	w.Marshal(buf)
	var w2 WarehouseRec
	w2.Unmarshal(buf)
	if w2 != w {
		t.Error("warehouse round trip failed")
	}
	var ol OrderLineRec
	ol.OID, ol.IID, ol.SupplyWID, ol.Number, ol.AmountCents = 7, 99, 2, 5, 1234
	buf = make([]byte, tpcc.TupleLen[core.OrderLine])
	ol.Marshal(buf)
	var ol2 OrderLineRec
	ol2.Unmarshal(buf)
	if ol2 != ol {
		t.Error("order-line round trip failed")
	}
}

func TestLastNames(t *testing.T) {
	if LastName(0) != "BARBARBAR" {
		t.Errorf("LastName(0) = %q", LastName(0))
	}
	if LastName(371) != "PRICALLYOUGHT" {
		t.Errorf("LastName(371) = %q", LastName(371))
	}
	if LastName(999) != "EINGEINGEING" {
		t.Errorf("LastName(999) = %q", LastName(999))
	}
}

func TestNewOrderTransaction(t *testing.T) {
	d := newLoaded(t, 1<<18)
	before := readDistrict(t, d, 0, 2)
	in := NewOrderInput{W: 0, D: 2, C: 17}
	for i := 0; i < 10; i++ {
		in.Items = append(in.Items, OrderItem{IID: int64(i * 100), SupplyW: 0, Qty: 3})
	}
	res, err := d.NewOrder(in)
	if err != nil {
		t.Fatal(err)
	}
	if res.OID != int64(before.NextOID) {
		t.Errorf("OID = %d, want %d", res.OID, before.NextOID)
	}
	after := readDistrict(t, d, 0, 2)
	if after.NextOID != before.NextOID+1 {
		t.Errorf("NextOID = %d, want %d", after.NextOID, before.NextOID+1)
	}
	// Order, new-order, and 10 order-lines exist.
	if _, ok := d.orderIdx.get(index.KeyWDO(0, 2, res.OID)); !ok {
		t.Error("order not indexed")
	}
	if _, ok := d.newOrderIdx.get(index.KeyWDO(0, 2, res.OID)); !ok {
		t.Error("new-order not indexed")
	}
	for l := int64(0); l < 10; l++ {
		if _, ok := d.olIdx.get(index.KeyWDOL(0, 2, res.OID, l)); !ok {
			t.Fatalf("order-line %d not indexed", l)
		}
	}
	if d.Commits() != 1 {
		t.Errorf("Commits = %d", d.Commits())
	}
}

func TestPaymentByIDUpdatesBalance(t *testing.T) {
	d := newLoaded(t, 1<<18)
	before := readCustomer(t, d, 0, 1, 42)
	err := d.Payment(PaymentInput{
		W: 0, D: 1, CW: 0, CD: 1, C: 42, AmountCents: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	after := readCustomer(t, d, 0, 1, 42)
	if after.BalanceCents != before.BalanceCents-5000 {
		t.Errorf("balance = %d, want %d", after.BalanceCents, before.BalanceCents-5000)
	}
	if after.PaymentCount != before.PaymentCount+1 {
		t.Errorf("payment count = %d", after.PaymentCount)
	}
	// History got a row.
	if d.heaps[core.History].Live() != 1 {
		t.Errorf("history rows = %d", d.heaps[core.History].Live())
	}
}

func TestPaymentByNamePicksMiddleCustomer(t *testing.T) {
	d := newLoaded(t, 1<<18)
	// Name ordinal 5 is held by customer 5 plus any NURand-assigned
	// customers in [1000, 3000).
	lo, hi := index.RangeWDNC(0, 0, 5)
	var cids []int64
	d.custNameIdx.ascendRange(lo, hi, func(k, v uint64) bool {
		cids = append(cids, int64(k&0xffff))
		return true
	})
	if len(cids) == 0 {
		t.Fatal("no customer with name ordinal 5")
	}
	want := cids[len(cids)/2]
	beforeBal := readCustomer(t, d, 0, 0, want).BalanceCents
	if err := d.Payment(PaymentInput{
		W: 0, D: 0, CW: 0, CD: 0, ByName: true, NameOrd: 5, AmountCents: 700,
	}); err != nil {
		t.Fatal(err)
	}
	afterBal := readCustomer(t, d, 0, 0, want).BalanceCents
	if afterBal != beforeBal-700 {
		t.Errorf("middle customer %d balance unchanged (%d -> %d)", want, beforeBal, afterBal)
	}
}

func TestOrderStatusReturnsLastOrder(t *testing.T) {
	d := newLoaded(t, 1<<18)
	// Place a fresh order for customer 9 — Order-Status must see it, not
	// the loaded one.
	in := NewOrderInput{W: 0, D: 4, C: 9}
	for i := 0; i < 7; i++ {
		in.Items = append(in.Items, OrderItem{IID: int64(i), SupplyW: 0, Qty: 1})
	}
	placed, err := d.NewOrder(in)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.OrderStatus(OrderStatusInput{W: 0, D: 4, C: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.OID != placed.OID {
		t.Errorf("last order = %d, want %d", res.OID, placed.OID)
	}
	if res.Lines != 7 {
		t.Errorf("lines = %d, want 7", res.Lines)
	}
}

func TestDeliveryProcessesOldestPerDistrict(t *testing.T) {
	d := newLoaded(t, 1<<18)
	noBefore := d.heaps[core.NewOrder].Live()
	res, err := d.Delivery(DeliveryInput{W: 0, Carrier: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 10 || res.Skipped != 0 {
		t.Fatalf("delivered %d skipped %d, want 10/0", res.Delivered, res.Skipped)
	}
	if got := d.heaps[core.NewOrder].Live(); got != noBefore-10 {
		t.Errorf("new-order rows = %d, want %d", got, noBefore-10)
	}
	// The oldest pending order of district 0 was order 2100 (the load
	// leaves the most recent 900 of 3000 pending).
	buf := make([]byte, tpcc.TupleLen[core.Order])
	rid, _ := d.orderIdx.get(index.KeyWDO(0, 0, 2100))
	if err := d.heaps[core.Order].Read(storage.UnpackRID(rid), buf); err != nil {
		t.Fatal(err)
	}
	var orec OrderRec
	orec.Unmarshal(buf)
	if orec.CarrierID != 3 {
		t.Errorf("order 2100 carrier = %d, want 3", orec.CarrierID)
	}
	// Its new-order row is gone.
	if _, ok := d.newOrderIdx.get(index.KeyWDO(0, 0, 2100)); ok {
		t.Error("delivered new-order still indexed")
	}
}

func TestDeliverySkipsEmptyDistricts(t *testing.T) {
	d := newLoaded(t, 1<<18)
	// Deliver district 0..9 completely (900 pending each): 900 rounds.
	for i := 0; i < 900; i++ {
		res, err := d.Delivery(DeliveryInput{W: 0, Carrier: 1})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != 10 {
			t.Fatalf("round %d delivered %d", i, res.Delivered)
		}
	}
	res, err := d.Delivery(DeliveryInput{W: 0, Carrier: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.Skipped != 10 {
		t.Errorf("drained warehouse: delivered %d skipped %d", res.Delivered, res.Skipped)
	}
	if d.heaps[core.NewOrder].Live() != 0 {
		t.Errorf("new-order rows = %d after drain", d.heaps[core.NewOrder].Live())
	}
}

func TestStockLevelCountsDistinctLowItems(t *testing.T) {
	d := newLoaded(t, 1<<18)
	// Threshold above any possible quantity counts every distinct item
	// in the last 20 orders; threshold 0 counts none (quantities stay
	// positive after the refill rule).
	all, err := d.StockLevel(StockLevelInput{W: 0, D: 0, Threshold: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	if all <= 0 || all > 200 {
		t.Errorf("distinct items in last 20 orders = %d, want (0,200]", all)
	}
	none, err := d.StockLevel(StockLevelInput{W: 0, D: 0, Threshold: 0})
	if err != nil {
		t.Fatal(err)
	}
	if none != 0 {
		t.Errorf("below-zero threshold matched %d items", none)
	}
}

func TestMixedWorkloadSequential(t *testing.T) {
	d := newLoaded(t, 1<<18)
	rn := NewRunner(d, 7, tpcc.DefaultMix())
	if err := rn.Run(300); err != nil {
		t.Fatal(err)
	}
	counts := rn.Counts()
	var total int64
	for _, c := range counts {
		total += c
	}
	if total != 300 {
		t.Errorf("executed %d, want 300", total)
	}
	if d.Commits() < 300 {
		t.Errorf("commits = %d", d.Commits())
	}
}

func TestMixedWorkloadConcurrent(t *testing.T) {
	d := newLoaded(t, 1<<18)
	if err := RunConcurrent(d, 11, tpcc.DefaultMix(), 600, 4); err != nil {
		t.Fatal(err)
	}
	if d.Commits() < 600 {
		t.Errorf("commits = %d, want >= 600", d.Commits())
	}
	// District order-id counters must equal 3000 + committed new-orders
	// per district; verify the global invariant instead: sum of NextOID
	// == 3000*10 + #orders placed.
	var nextSum int64
	for dist := int64(0); dist < 10; dist++ {
		nextSum += int64(readDistrict(t, d, 0, dist).NextOID)
	}
	orders := d.heaps[core.Order].Live()
	if nextSum != orders {
		t.Errorf("sum(NextOID) = %d but %d orders exist", nextSum, orders)
	}
}

func TestBufferStatsTrackRelations(t *testing.T) {
	// 8192 pages (32MB) against a ~60MB single-warehouse database: the
	// skewed relations miss, the single hot warehouse page survives.
	d := newLoaded(t, 8192)
	d.ResetBufferStats()
	rn := NewRunner(d, 3, tpcc.DefaultMix())
	if err := rn.Run(300); err != nil {
		t.Fatal(err)
	}
	stats := d.RelationStats()
	if stats[core.Stock].Accesses() == 0 || stats[core.Customer].Accesses() == 0 {
		t.Error("stock/customer accesses not recorded")
	}
	if stats[core.Stock].Misses == 0 {
		t.Error("stock never missed in an undersized pool")
	}
	if wh := stats[core.Warehouse]; wh.MissRate() > 0.02 {
		t.Errorf("warehouse miss rate %v, want ~0 (paper: warehouse always fits)", wh.MissRate())
	}
}

// TestAppendOnlyIndexesStayFull: the order-line B+tree fills its leaves at
// load, which inserts in key order, and under New-Order, which appends each
// district's lines after that district's last while the other districts
// append elsewhere. The loaded leaves and the leaves the run adds both hold
// at least 90 % of their 64 keys; a split at the middle left them about
// half full. (The order tree fills the same way, but at 178 orders a
// district in this run, the one middle split where each district's new keys
// meet the next district's loaded ones still weighs.)
func TestAppendOnlyIndexesStayFull(t *testing.T) {
	const leafKeys = 64 // the B+tree's fan-out
	d := newLoaded(t, 1<<18)
	fill := func(keys, leaves int) float64 { return float64(keys) / float64(leaves*leafKeys) }
	keys, leaves := d.olIdx.t.Len(), d.olIdx.t.Leaves()
	if f := fill(keys, leaves); f < 0.9 {
		t.Errorf("after load: %d keys in %d leaves, fill %.2f", keys, leaves, f)
	}
	rn := NewRunner(d, 7, tpcc.DefaultMix())
	if err := rn.Run(4000); err != nil {
		t.Fatal(err)
	}
	keys, leaves = d.olIdx.t.Len()-keys, d.olIdx.t.Leaves()-leaves
	if f := fill(keys, leaves); f < 0.9 {
		t.Errorf("the run added %d keys in %d leaves, fill %.2f", keys, leaves, f)
	}
}

// TestConfigBoundsWarehouseIDs: the dense indexes hold keys below
// index.DenseLimit, which the packings reach only with 16-bit warehouse
// ids, so Validate refuses a scale that needs more.
func TestConfigBoundsWarehouseIDs(t *testing.T) {
	cfg := Config{Warehouses: 1 << 16, PageSize: 4096, BufferPages: 16}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if k := index.KeyWDC(1<<16-1, 9, 2999); k >= index.DenseLimit {
		t.Fatalf("the last customer key %#x is past the dense range", k)
	}
	cfg.Warehouses++
	if err := cfg.Validate(); err == nil {
		t.Errorf("%d warehouses validated", cfg.Warehouses)
	}
}
