package db

import (
	"fmt"
	"slices"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// OrderItem is one requested line of a New-Order transaction. Remote
// marks lines supplied by a warehouse on another shard: SupplyW then
// holds a GLOBAL warehouse id (it may numerically collide with a local
// id, so for such a line SupplyW is never compared with W), and the line's
// stock step belongs to that shard's RemoteStockBegin, not to this
// instance. A line without the flag names a warehouse of this instance.
type OrderItem struct {
	IID     int64
	SupplyW int64
	Qty     int64
	Remote  bool
}

// NewOrderInput parameterizes the New-Order transaction.
type NewOrderInput struct {
	W, D, C int64
	Items   []OrderItem
}

// NewOrderResult reports the created order.
type NewOrderResult struct {
	OID         int64
	TotalCents  uint64
	RemoteLines int
}

// NewOrder executes the Section 2.2 New-Order transaction: read warehouse,
// read+update district (allocating the order id), read customer, insert
// order and new-order, and per item read item, read+update stock, insert
// order-line. Returns ErrAborted on deadlock; the caller retries.
func (s *Session) NewOrder(in NewOrderInput) (NewOrderResult, error) {
	t := s.begin()
	res, err := t.newOrder(in)
	return res, t.finish(err)
}

// newOrder is the New-Order body, shared by the local procedure and the
// home branch of a distributed one (NewOrderHomeBegin). The two differ
// only in their input: a line flagged Remote has its stock step run on the
// supplier's instance (RemoteStockBegin) and skipped here; its item read
// (Item is replicated everywhere) and its order-line, which records the
// supplier id as given, stay home.
//
// The body works through the transaction's scratch: reads and marshals go
// through t.buf, after-images through t.img, and store/insertRow copy what
// they keep, so a committed execution allocates nothing.
func (t *txn) newOrder(in NewOrderInput) (NewOrderResult, error) {
	d := t.d
	var res NewOrderResult
	t.planNewOrder(in)

	// 1. Select warehouse through W_TAX (snapshot read: the warehouse row
	// is not written by New-Order, so mvcc takes no lock here).
	if _, err := t.snap(core.Warehouse, uint64(in.W), whTaxEnd); err != nil {
		return res, err
	}

	// 2-3. Select and update district: allocate the order id.
	dr, err := t.fetch(core.District, index.KeyWD(in.W, in.D))
	if err != nil {
		return res, err
	}
	var drec DistrictRec
	drec.Unmarshal(dr.cur)
	oid := int64(drec.NextOID)
	drec.NextOID++
	drec.Marshal(dr.next)
	if err := t.store(dr); err != nil {
		return res, err
	}

	// 4. Select customer through C_LAST.
	if _, err := t.snap(core.Customer, index.KeyWDC(in.W, in.D, in.C), custHeadEnd); err != nil {
		return res, err
	}

	// 5. Insert order. A line is remote (clause 2.4.2.2) when another
	// warehouse supplies it, on this instance or on another.
	for _, it := range in.Items {
		if it.Remote || it.SupplyW != in.W {
			res.RemoteLines++
		}
	}
	orec := OrderRec{
		OID: uint32(oid), CID: uint32(in.C), WID: uint16(in.W), DID: uint8(in.D),
		OLCount: uint8(len(in.Items)), EntryTick: d.nextTick(),
	}
	if res.RemoteLines == 0 {
		orec.AllLocal = 1
	}
	buf := t.buf
	olen := tpcc.TupleLen[core.Order]
	orec.Marshal(buf[:olen])
	if _, err := t.insertRow(core.Order, buf[:olen]); err != nil {
		return res, err
	}

	// 6. Insert new-order.
	norec := NewOrderRec{OID: uint32(oid), WID: uint16(in.W), DID: uint8(in.D)}
	nolen := tpcc.TupleLen[core.NewOrder]
	norec.Marshal(buf[:nolen])
	if _, err := t.insertRow(core.NewOrder, buf[:nolen]); err != nil {
		return res, err
	}

	// 7. Per item: select item, select+update stock, insert order-line.
	ollen := tpcc.TupleLen[core.OrderLine]
	for n, it := range in.Items {
		cur, err := t.snap(core.Item, uint64(it.IID), itemPriceEnd)
		if err != nil {
			return res, err
		}
		var irec ItemRec
		irec.unmarshalPrice(cur)

		if !it.Remote {
			if err := t.orderStock(it, it.SupplyW != in.W); err != nil {
				return res, err
			}
		}

		amount := uint32(it.Qty) * irec.PriceCents
		olrec := OrderLineRec{
			OID: uint32(oid), IID: uint32(it.IID), SupplyWID: uint16(it.SupplyW),
			WID: uint16(in.W), DID: uint8(in.D), Number: uint8(n),
			Quantity: uint8(it.Qty), AmountCents: amount,
		}
		olrec.Marshal(buf[:ollen])
		if _, err := t.insertRow(core.OrderLine, buf[:ollen]); err != nil {
			return res, err
		}
		res.TotalCents += uint64(amount)
	}

	res.OID = oid
	return res, nil
}

// orderStock is New-Order's per-line stock step: select and update the
// supplier's stock row, which must live on this instance. remote says the
// supplier is not the order's home warehouse (s_remote_cnt).
func (t *txn) orderStock(it OrderItem, remote bool) error {
	sr, err := t.fetch(core.Stock, index.KeyWI(it.SupplyW, it.IID))
	if err != nil {
		return err
	}
	var srec StockRec
	srec.Unmarshal(sr.cur)
	applyStockOrder(&srec, it.Qty, remote)
	srec.Marshal(sr.next)
	return t.store(sr)
}

// applyStockOrder applies the New-Order stock mutation rules in place.
func applyStockOrder(s *StockRec, qty int64, remote bool) {
	s.Quantity -= int32(qty)
	if s.Quantity < 10 {
		s.Quantity += 91
	}
	s.YTD += uint64(qty)
	s.OrderCount++
	if remote {
		s.RemoteCnt++
	}
}

// PaymentInput parameterizes the Payment transaction. The paying customer
// lives at (CW, CD) — a remote warehouse 15% of the time — and is chosen
// by id or by last-name ordinal.
type PaymentInput struct {
	W, D        int64
	CW, CD      int64
	ByName      bool
	C           int64 // customer id (ByName false)
	NameOrd     int64 // last-name ordinal (ByName true)
	AmountCents uint32
}

// Payment executes the Payment transaction: warehouse, district, customer,
// history. A distributed Payment is the same steps on two instances:
// payHome and payHistory at the paying warehouse (PaymentHomeBegin),
// payCustomer at the customer's (RemotePaymentBegin).
func (s *Session) Payment(in PaymentInput) error {
	t := s.begin()
	t.planPayment(in.CW, in.CD, in.ByName, in.C, in.NameOrd)
	err := t.payHome(in)
	var cid int64
	if err == nil {
		cid, _, err = t.payCustomer(in.CW, in.CD, in.ByName, in.C, in.NameOrd, in.AmountCents)
	}
	if err == nil {
		err = t.payHistory(in, in.CW, in.CD, cid)
	}
	return t.finish(err)
}

// payHome selects and updates the paying warehouse and district (YTD).
func (t *txn) payHome(in PaymentInput) error {
	wr, err := t.fetch(core.Warehouse, uint64(in.W))
	if err != nil {
		return err
	}
	var wrec WarehouseRec
	wrec.Unmarshal(wr.cur)
	wrec.YTDCents += uint64(in.AmountCents)
	wrec.Marshal(wr.next)
	if err := t.store(wr); err != nil {
		return err
	}

	dr, err := t.fetch(core.District, index.KeyWD(in.W, in.D))
	if err != nil {
		return err
	}
	var drec DistrictRec
	drec.Unmarshal(dr.cur)
	drec.YTDCents += uint64(in.AmountCents)
	drec.Marshal(dr.next)
	return t.store(dr)
}

// payCustomer selects the paying customer of (w, dist) — by id c, or by
// last-name ordinal — and applies the balance, ytd and payment-count
// update. It returns the resolved customer id and how many customer tuples
// the selection touched (1 by id, the name group by name: RC_cust).
func (t *txn) payCustomer(w, dist int64, byName bool, c, nameOrd int64, amountCents uint32) (int64, int, error) {
	cid, selected := c, 1
	if byName {
		var err error
		cid, selected, err = t.middleCustomerByName(w, dist, nameOrd, nil)
		if err != nil {
			return 0, 0, err
		}
	}
	cr, err := t.fetch(core.Customer, index.KeyWDC(w, dist, cid))
	if err != nil {
		return 0, 0, err
	}
	var crec CustomerRec
	crec.Unmarshal(cr.cur)
	crec.BalanceCents -= int64(amountCents)
	crec.YTDPayCents += uint64(amountCents)
	crec.PaymentCount++
	crec.Marshal(cr.next)
	if err := t.store(cr); err != nil {
		return 0, 0, err
	}
	return cid, selected, nil
}

// payHistory inserts the history row (no index, and no lock: the row is
// invisible to every other transaction). custW/custD/custC are recorded as
// given — GLOBAL coordinates when the customer lives on another instance.
func (t *txn) payHistory(in PaymentInput, custW, custD, custC int64) error {
	hrec := HistoryRec{
		CID: uint32(custC), CWID: uint16(custW), CDID: uint8(custD),
		DID: uint8(in.D), WID: uint16(in.W),
		AmountCents: in.AmountCents, Tick: t.d.nextTick(),
	}
	rec := t.buf[:tpcc.TupleLen[core.History]]
	hrec.Marshal(rec)
	_, err := t.insertRow(core.History, rec)
	return err
}

// middleCustomerByName implements the benchmark's non-unique select: all
// customers of (w, d) sharing the last name are read (under S locks with
// 2PL, snapshot reads with mvcc; customers are never inserted or deleted,
// so the name group is the same set either way) and the middle one by
// customer id is returned, along with how many tuples the select touched
// (the Appendix A RC_cust remote-call measurement). The hit list lives in
// the transaction's scratch; the name index yields it in customer-id order
// (index.KeyWDNC). The group is read in one batch of custHeadEnd
// projections, and when mid is not nil the middle customer's is decoded
// into it.
func (t *txn) middleCustomerByName(w, d, nameOrd int64, mid *CustomerRec) (int64, int, error) {
	hits := t.nameGroup(w, d, nameOrd)
	if len(hits) == 0 {
		return 0, 0, fmt.Errorf("db: no customer named %d in (%d,%d)", nameOrd, w, d)
	}
	t.keys, t.rids = t.keys[:0], t.rids[:0]
	for _, h := range hits {
		t.keys = append(t.keys, index.KeyWDC(w, d, h.cid))
		t.rids = append(t.rids, storage.UnpackRID(h.rid))
	}
	rows, _, err := t.snapReadAll(core.Customer, t.keys, t.rids, custHeadEnd)
	if err != nil {
		return 0, 0, err
	}
	m := len(hits) / 2
	if mid != nil {
		mid.unmarshalHead(rows[m*custHeadEnd : (m+1)*custHeadEnd])
	}
	return hits[m].cid, len(hits), nil
}

// nameGroup collects the customers of (w, d) with last-name ordinal nameOrd
// into t.hits, in customer-id order.
func (t *txn) nameGroup(w, d, nameOrd int64) []custHit {
	lo, hi := index.RangeWDNC(w, d, nameOrd)
	t.hits = t.hits[:0]
	t.d.idx[idxCustName].ascendRange(lo, hi, func(k, v uint64) bool {
		t.hits = append(t.hits, custHit{cid: int64(k & 0xffff), rid: v})
		return true
	})
	return t.hits
}

// OrderStatusInput parameterizes the Order-Status transaction.
type OrderStatusInput struct {
	W, D    int64
	ByName  bool
	C       int64
	NameOrd int64
}

// OrderStatusResult reports the customer's last order: the spec's output
// columns (clause 2.6.3.4) as the engine's records hold them.
type OrderStatusResult struct {
	CID          int64
	BalanceCents int64
	Last         [custLastLen]byte // C_LAST, zero-padded
	OID          int64
	EntryTick    uint64
	Carrier      uint8
	// Lines counts the order's lines; Line holds the first maxStatusLines.
	Lines int
	Line  [maxStatusLines]OrderStatusLine
}

// OrderStatusLine is one order line as Order-Status reports it.
type OrderStatusLine struct {
	IID          uint32
	SupplyWID    uint16
	Quantity     uint8
	AmountCents  uint32
	DeliveryTick uint64 // 0 until delivered
}

// maxStatusLines is the largest order the spec allows (clause 2.4.1.3).
const maxStatusLines = 15

// OrderStatus executes the read-only Order-Status transaction.
func (s *Session) OrderStatus(in OrderStatusInput) (OrderStatusResult, error) {
	t := s.begin()
	var res OrderStatusResult
	err := t.orderStatus(in, &res)
	return res, t.finish(err)
}

// orderStatus is the Order-Status body. Its customer and order-line reads
// are projections (custHeadEnd, olStatusEnd): it copies the columns it
// reports and none of the rest.
func (t *txn) orderStatus(in OrderStatusInput, res *OrderStatusResult) error {
	d := t.d
	t.planOrderStatus(in)

	var crec CustomerRec
	cid := in.C
	if in.ByName {
		var err error
		cid, _, err = t.middleCustomerByName(in.W, in.D, in.NameOrd, &crec)
		if err != nil {
			return err
		}
	} else {
		cur, err := t.snap(core.Customer, index.KeyWDC(in.W, in.D, cid), custHeadEnd)
		if err != nil {
			return err
		}
		crec.unmarshalHead(cur)
	}
	res.CID = cid
	res.BalanceCents = crec.BalanceCents
	copy(res.Last[:], crec.Data[:custLastLen])

	// Select(Max(order-id)): lookups in the (w,d,c,o) index, walking
	// downward past orders not visible at the snapshot (an mvcc reader
	// may see the index entry of an order committed after it began; under
	// 2PL the newest entry is always live and the loop runs once).
	lo, hi := index.RangeWDCO(in.W, in.D, cid)
	ordBuf := t.buf[:tpcc.TupleLen[core.Order]]
	var oid int64
	for {
		k, orid, ok := d.idx[idxCustOrder].max(hi)
		if !ok || k < lo {
			// No order visible (cannot happen after a standard load).
			return nil
		}
		oid = int64(k & (1<<28 - 1))
		okey := index.KeyWDO(in.W, in.D, oid)
		live, err := t.snapRead(core.Order, okey, storage.UnpackRID(orid), ordBuf)
		if err != nil {
			return err
		}
		if live {
			break
		}
		hi = k - 1
	}
	var orec OrderRec
	orec.Unmarshal(ordBuf)
	res.OID = oid
	res.EntryTick = orec.EntryTick
	res.Carrier = orec.CarrierID

	// Each order line of the last order, read in one batch (the order is
	// visible, so its lines — committed atomically with it — are visible
	// too).
	lo, hi = index.RangeWDOLOrder(in.W, in.D, oid)
	t.collectRange(d.idx[idxOrderLine], lo, hi)
	rows, live, err := t.snapReadAll(core.OrderLine, t.keys, t.rids, olStatusEnd)
	if err != nil {
		return err
	}
	var olrec OrderLineRec
	for i, l := range live {
		if !l {
			continue
		}
		if res.Lines < maxStatusLines {
			olrec.unmarshalStatus(rows[i*olStatusEnd : (i+1)*olStatusEnd])
			res.Line[res.Lines] = OrderStatusLine{
				IID: olrec.IID, SupplyWID: olrec.SupplyWID, Quantity: olrec.Quantity,
				AmountCents: olrec.AmountCents, DeliveryTick: olrec.DeliveryTick,
			}
		}
		res.Lines++
	}
	return nil
}

// DeliveryInput parameterizes the Delivery transaction.
type DeliveryInput struct {
	W       int64
	Carrier uint8
}

// DeliveryResult reports how many districts had a pending order.
type DeliveryResult struct {
	Delivered int
	Skipped   int
}

// Delivery executes the deferred Delivery transaction: for each district
// of the warehouse, the oldest undelivered order is removed from
// new-order, stamped in order and order-line, and the customer balance is
// credited. Every row Delivery reads it also writes, so under mvcc all
// its reads stay CURRENT reads under the exclusive locks (reading the
// snapshot would just guarantee a first-committer-wins abort whenever the
// row moved since begin); correctness still comes from validation at the
// write.
func (s *Session) Delivery(in DeliveryInput) (DeliveryResult, error) {
	t := s.begin()
	var res DeliveryResult
	t.planDelivery(in.W)
	for dist := int64(0); dist < tpcc.DistrictsPerWarehouse; dist++ {
		delivered, err := t.deliverDistrict(in, dist)
		if err != nil {
			return res, t.fail(err)
		}
		if delivered {
			res.Delivered++
		} else {
			res.Skipped++
		}
	}
	return res, t.commit()
}

func (t *txn) deliverDistrict(in DeliveryInput, dist int64) (bool, error) {
	d := t.d
	lo, hi := index.RangeWDO(in.W, dist)
	for {
		// Select(Min(order-id)) from New-Order via the index.
		k, norid, ok := d.idx[idxNewOrder].min(lo)
		if !ok || k > hi {
			return false, nil
		}
		oid := int64(k & (1<<40 - 1))
		if err := t.lockRow(core.NewOrder, k, lock.Exclusive); err != nil {
			return false, err
		}
		// Revalidate after the wait: another Delivery may have taken it.
		if cur, ok := d.idx[idxNewOrder].get(k); !ok || cur != norid {
			continue
		}

		norec := t.buf[:tpcc.TupleLen[core.NewOrder]]
		if err := t.readRec(core.NewOrder, storage.UnpackRID(norid), norec); err != nil {
			return false, err
		}
		if err := t.deleteRow(core.NewOrder, storage.UnpackRID(norid), norec); err != nil {
			return false, err
		}

		// Select + update the order (stamp the carrier).
		ord, err := t.fetch(core.Order, k)
		if err != nil {
			return false, err
		}
		var orec OrderRec
		orec.Unmarshal(ord.cur)
		orec.CarrierID = in.Carrier
		orec.Marshal(ord.next)
		if err := t.store(ord); err != nil {
			return false, err
		}

		// Select + update each order line (stamp delivery, sum amounts).
		tick := d.nextTick()
		var total uint64
		for l := int64(0); l < int64(orec.OLCount); l++ {
			olr, err := t.fetch(core.OrderLine, index.KeyWDOL(in.W, dist, oid, l))
			if err != nil {
				return false, err
			}
			var olrec OrderLineRec
			olrec.Unmarshal(olr.cur)
			olrec.DeliveryTick = tick
			total += uint64(olrec.AmountCents)
			olrec.Marshal(olr.next)
			if err := t.store(olr); err != nil {
				return false, err
			}
		}

		// Select + update the customer (credit the balance).
		cr, err := t.fetch(core.Customer, index.KeyWDC(in.W, dist, int64(orec.CID)))
		if err != nil {
			return false, err
		}
		var crec CustomerRec
		crec.Unmarshal(cr.cur)
		crec.BalanceCents += int64(total)
		crec.DeliveryCount++
		crec.Marshal(cr.next)
		return true, t.store(cr)
	}
}

// StockLevelInput parameterizes the Stock-Level transaction.
type StockLevelInput struct {
	W, D      int64
	Threshold int32
}

// StockLevel executes the Stock-Level join: count distinct items among the
// order lines of the district's last 20 orders whose stock quantity at the
// home warehouse is below the threshold. Returns the count.
func (s *Session) StockLevel(in StockLevelInput) (int, error) {
	t := s.begin()
	low, err := t.stockLevel(in)
	return low, t.finish(err)
}

// stockLevel is the Stock-Level body, the join in two batch reads: the
// order lines of the district's last 20 orders, then the stock row of each
// line found live, duplicates included. Both read projections: olItemEnd of
// each order line and stockQtyEnd of each stock row, 20 bytes of the 360
// the two records hold.
func (t *txn) stockLevel(in StockLevelInput) (int, error) {
	d := t.d

	// First select: the district's next order id. Under mvcc the whole
	// join below is consistent by construction: if the snapshot's
	// district shows NextOID = n, every order below n committed at or
	// before the snapshot, together with its order lines.
	cur, err := t.snap(core.District, index.KeyWD(in.W, in.D), tpcc.TupleLen[core.District])
	if err != nil {
		return 0, err
	}
	var drec DistrictRec
	drec.Unmarshal(cur)

	// Join: order lines of orders [next-20, next) against stock.
	loOID := int64(drec.NextOID) - tpcc.StockLevelOrders
	if loOID < 0 {
		loOID = 0
	}
	lo := index.KeyWDOL(in.W, in.D, loOID, 0)
	hi := index.KeyWDOL(in.W, in.D, int64(drec.NextOID)-1, 255)
	t.collectRange(d.idx[idxOrderLine], lo, hi)
	rows, live, err := t.snapReadAll(core.OrderLine, t.keys, t.rids, olItemEnd)
	if err != nil {
		return 0, err
	}
	// The stock rows take the lines' places in keys and rids: line i's
	// stock row goes to slot j <= i, after line i is decoded.
	stock := d.primary(core.Stock)
	var olrec OrderLineRec
	j := 0
	for i, l := range live {
		if !l {
			// An index entry for an order line committed after the
			// snapshot (mvcc only): not part of this cut.
			continue
		}
		olrec.unmarshalItem(rows[i*olItemEnd : (i+1)*olItemEnd])
		key := index.KeyWI(in.W, int64(olrec.IID))
		rid, ok := stock.get(key)
		if !ok {
			return 0, fmt.Errorf("db: no %s row %#x", core.Stock, key)
		}
		t.keys[j], t.rids[j] = key, storage.UnpackRID(rid)
		j++
	}
	if rows, _, err = t.snapReadAll(core.Stock, t.keys[:j], t.rids[:j], stockQtyEnd); err != nil {
		return 0, err
	}
	// The distinct-item set is a linear-scan slice, not a map: the scan
	// covers at most 20 orders × 15 lines, and the slice is reusable
	// transaction scratch while a map would allocate per transaction.
	t.seen = t.seen[:0]
	var srec StockRec
	for i := range j {
		srec.unmarshalQty(rows[i*stockQtyEnd : (i+1)*stockQtyEnd])
		if srec.Quantity < in.Threshold && !slices.Contains(t.seen, srec.IID) {
			t.seen = append(t.seen, srec.IID)
		}
	}
	return len(t.seen), nil
}

// collectRange collects the rows g holds in [lo, hi] into t.keys and
// t.rids, in key order, for a batch read.
func (t *txn) collectRange(g *relIndex, lo, hi uint64) {
	t.keys, t.rids = t.keys[:0], t.rids[:0]
	g.ascendRange(lo, hi, func(k, v uint64) bool {
		t.keys = append(t.keys, k)
		t.rids = append(t.rids, storage.UnpackRID(v))
		return true
	})
}
