package db

import (
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// Read-ahead of a transaction's declared pages. A TPC-C transaction's read
// set is a function of its input (NoisePage's harness precomputes every
// input for the same reason), so before its first lock a procedure body
// looks its cold rows up in the in-memory indexes and hands their pages to
// bufmgr.Prefetch: the reads run side by side, and the body's own pins wait
// out whatever is still in flight instead of reading one page at a time
// under the row locks it has already taken. Only pages are touched early,
// never locks, so lock order, deadlocks and the committed state are those
// of the unplanned body. Warehouse and district rows are hot and left out,
// and so is Stock-Level, which reads little but stock it cannot name before
// its own scan.
//
// A plan is a hint: an index entry that is gone, or a row that moved, only
// costs a read nobody claims.

// planning starts a plan and reports whether one is worth its index probes:
// only once the pool has had to evict, i.e. when the data does not fit.
func (t *txn) planning() bool {
	if !t.d.buf.Evicted() {
		return false
	}
	t.pages = t.pages[:0]
	return true
}

// prefetch starts the reads of the planned pages.
func (t *txn) prefetch() { t.d.buf.Prefetch(t.pages) }

// planRID plans the page of a packed RID.
func (t *txn) planRID(rid uint64) { t.pages = append(t.pages, storage.UnpackRID(rid).Page) }

// planRow plans the page of the row key names in g, if there is one.
func (t *txn) planRow(g *relIndex, key uint64) {
	if rid, ok := g.get(key); ok {
		t.planRID(rid)
	}
}

// planRange plans the pages of every row g holds in [lo, hi].
func (t *txn) planRange(g *relIndex, lo, hi uint64) {
	g.ascendRange(lo, hi, func(_, rid uint64) bool {
		t.planRID(rid)
		return true
	})
}

// planCustomer plans the customer a Payment or an Order-Status selects — by
// id, or every row of the name group — and returns the id the body will
// select, or false when the name group is empty.
func (t *txn) planCustomer(w, dist int64, byName bool, c, nameOrd int64) (int64, bool) {
	if !byName {
		t.planRow(t.d.idx[idxCustomer], index.KeyWDC(w, dist, c))
		return c, true
	}
	hits := t.nameGroup(w, dist, nameOrd)
	for _, h := range hits {
		t.planRID(h.rid)
	}
	if len(hits) == 0 {
		return 0, false
	}
	return hits[len(hits)/2].cid, true
}

// planNewOrder reads ahead New-Order's customer, its items and the stock
// rows of the lines this instance supplies (RemoteStockBegin plans the
// others on theirs).
func (t *txn) planNewOrder(in NewOrderInput) {
	if !t.planning() {
		return
	}
	d := t.d
	t.planRow(d.idx[idxCustomer], index.KeyWDC(in.W, in.D, in.C))
	for _, it := range in.Items {
		t.planRow(d.idx[idxItem], uint64(it.IID))
		t.planStockLine(it)
	}
	t.prefetch()
}

// planStock reads ahead a participant's stock lines.
func (t *txn) planStock(items []OrderItem) {
	if !t.planning() {
		return
	}
	for _, it := range items {
		t.planStockLine(it)
	}
	t.prefetch()
}

// planStockLine plans the stock row of a line this instance supplies: one
// not flagged Remote, as orderStock would read it.
func (t *txn) planStockLine(it OrderItem) {
	if !it.Remote {
		t.planRow(t.d.idx[idxStock], index.KeyWI(it.SupplyW, it.IID))
	}
}

// planPayment reads ahead the paying customer.
func (t *txn) planPayment(w, dist int64, byName bool, c, nameOrd int64) {
	if !t.planning() {
		return
	}
	t.planCustomer(w, dist, byName, c, nameOrd)
	t.prefetch()
}

// planOrderStatus reads ahead the customer, its newest order and that
// order's lines, all found through the indexes without reading a record.
func (t *txn) planOrderStatus(in OrderStatusInput) {
	if !t.planning() {
		return
	}
	d := t.d
	if cid, ok := t.planCustomer(in.W, in.D, in.ByName, in.C, in.NameOrd); ok {
		lo, hi := index.RangeWDCO(in.W, in.D, cid)
		if k, orid, ok := d.idx[idxCustOrder].max(hi); ok && k >= lo {
			t.planRID(orid)
			lo, hi = index.RangeWDOLOrder(in.W, in.D, int64(k&(1<<28-1)))
			t.planRange(d.idx[idxOrderLine], lo, hi)
		}
	}
	t.prefetch()
}

// planDelivery reads ahead in two batches: each district's oldest
// undelivered order, its new-order row and its lines; then the customers
// those orders name. The customer id is read off the order's page once the
// first batch has brought it in — a Peek, taking no lock and counting no
// access, whose answer only decides what to read ahead.
func (t *txn) planDelivery(w int64) {
	if !t.planning() {
		return
	}
	d := t.d
	var orders [tpcc.DistrictsPerWarehouse]uint64 // packed RID + 1; 0 = none
	for dist := range orders {
		lo, hi := index.RangeWDO(w, int64(dist))
		k, norid, ok := d.idx[idxNewOrder].min(lo)
		if !ok || k > hi {
			continue
		}
		t.planRID(norid)
		if orid, ok := d.idx[idxOrder].get(k); ok {
			t.planRID(orid)
			orders[dist] = orid + 1
		}
		lo, hi = index.RangeWDOLOrder(w, int64(dist), int64(k&(1<<40-1)))
		t.planRange(d.idx[idxOrderLine], lo, hi)
	}
	t.prefetch()

	t.pages = t.pages[:0]
	rec := t.buf[:tpcc.TupleLen[core.Order]]
	for dist, orid := range orders {
		if orid == 0 || !d.heaps[core.Order].Peek(storage.UnpackRID(orid-1), rec) {
			continue
		}
		var orec OrderRec
		orec.Unmarshal(rec)
		t.planRow(d.idx[idxCustomer], index.KeyWDC(w, int64(dist), int64(orec.CID)))
	}
	t.prefetch()
}
