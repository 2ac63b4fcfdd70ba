package db

import (
	"fmt"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// OrderItem is one requested line of a New-Order transaction. Remote
// marks lines supplied by a warehouse on another shard: SupplyW then
// holds a GLOBAL warehouse id (it may numerically collide with a local
// id, so remoteness must come from this flag, never from SupplyW != W).
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
//
// The body works entirely through the session transaction's scratch
// buffers: reads and marshals go through t.buf, after-images through
// t.img, and updateRec/insertRec copy what they keep, so a committed
// execution allocates nothing.
func (s *Session) NewOrder(in NewOrderInput) (NewOrderResult, error) {
	d := s.d
	t := s.begin()
	var res NewOrderResult

	// 1. Select warehouse (snapshot read: the warehouse row is not
	// written by New-Order, so mvcc takes no lock here).
	var wrec WarehouseRec
	wrid, ok := d.warehouseIdx.get(uint64(in.W))
	if !ok {
		return res, t.fail(fmt.Errorf("db: no warehouse %d", in.W))
	}
	buf := t.buf
	if _, err := t.snapRead(core.Warehouse, uint64(in.W), storage.UnpackRID(wrid), buf[:tpcc.TupleLen[core.Warehouse]]); err != nil {
		return res, t.fail(err)
	}
	wrec.Unmarshal(buf[:tpcc.TupleLen[core.Warehouse]])

	// 2-3. Select and update district: allocate the order id. Written
	// rows keep their exclusive lock and CURRENT read in both modes;
	// under mvcc the update validates first committer wins instead.
	dkey := index.KeyWD(in.W, in.D)
	if err := t.lockRow(core.District, dkey, lock.Exclusive); err != nil {
		return res, t.fail(err)
	}
	drid, ok := d.districtIdx.get(dkey)
	if !ok {
		return res, t.fail(fmt.Errorf("db: no district (%d,%d)", in.W, in.D))
	}
	dlen := tpcc.TupleLen[core.District]
	if err := t.readRec(core.District, storage.UnpackRID(drid), buf[:dlen]); err != nil {
		return res, t.fail(err)
	}
	var drec DistrictRec
	drec.Unmarshal(buf[:dlen])
	oid := int64(drec.NextOID)
	drec.NextOID++
	drec.Marshal(t.img[:dlen])
	if err := t.updateRow(core.District, dkey, storage.UnpackRID(drid), buf[:dlen], t.img[:dlen]); err != nil {
		return res, t.fail(err)
	}

	// 4. Select customer.
	ckey := index.KeyWDC(in.W, in.D, in.C)
	crid, ok := d.customerIdx.get(ckey)
	if !ok {
		return res, t.fail(fmt.Errorf("db: no customer (%d,%d,%d)", in.W, in.D, in.C))
	}
	if _, err := t.snapRead(core.Customer, ckey, storage.UnpackRID(crid), buf[:tpcc.TupleLen[core.Customer]]); err != nil {
		return res, t.fail(err)
	}

	// 5. Insert order.
	allLocal := uint8(1)
	for _, it := range in.Items {
		if it.SupplyW != in.W {
			allLocal = 0
		}
	}
	okey := index.KeyWDO(in.W, in.D, oid)
	if err := t.lockRow(core.Order, okey, lock.Exclusive); err != nil {
		return res, t.fail(err)
	}
	orec := OrderRec{
		OID: uint32(oid), CID: uint32(in.C), WID: uint16(in.W), DID: uint8(in.D),
		OLCount: uint8(len(in.Items)), AllLocal: allLocal, EntryTick: d.nextTick(),
	}
	olen := tpcc.TupleLen[core.Order]
	orec.Marshal(buf[:olen])
	orid, err := t.insertRow(core.Order, okey, buf[:olen])
	if err != nil {
		return res, t.fail(err)
	}
	t.setIdx(d.orderIdx, okey, orid.Pack())
	t.setIdx(d.custOrderIdx, index.KeyWDCO(in.W, in.D, in.C, oid), orid.Pack())

	// 6. Insert new-order.
	if err := t.lockRow(core.NewOrder, okey, lock.Exclusive); err != nil {
		return res, t.fail(err)
	}
	norec := NewOrderRec{OID: uint32(oid), WID: uint16(in.W), DID: uint8(in.D)}
	nolen := tpcc.TupleLen[core.NewOrder]
	norec.Marshal(buf[:nolen])
	norid, err := t.insertRow(core.NewOrder, okey, buf[:nolen])
	if err != nil {
		return res, t.fail(err)
	}
	t.setIdx(d.newOrderIdx, okey, norid.Pack())

	// 7. Per item: select item, select+update stock, insert order-line.
	ilen := tpcc.TupleLen[core.Item]
	slen := tpcc.TupleLen[core.Stock]
	ollen := tpcc.TupleLen[core.OrderLine]
	for n, it := range in.Items {
		irid, ok := d.itemIdx.get(uint64(it.IID))
		if !ok {
			return res, t.fail(fmt.Errorf("db: no item %d", it.IID))
		}
		if _, err := t.snapRead(core.Item, uint64(it.IID), storage.UnpackRID(irid), buf[:ilen]); err != nil {
			return res, t.fail(err)
		}
		var irec ItemRec
		irec.Unmarshal(buf[:ilen])

		skey := index.KeyWI(it.SupplyW, it.IID)
		if err := t.lockRow(core.Stock, skey, lock.Exclusive); err != nil {
			return res, t.fail(err)
		}
		srid, ok := d.stockIdx.get(skey)
		if !ok {
			return res, t.fail(fmt.Errorf("db: no stock (%d,%d)", it.SupplyW, it.IID))
		}
		if err := t.readRec(core.Stock, storage.UnpackRID(srid), buf[:slen]); err != nil {
			return res, t.fail(err)
		}
		var srec StockRec
		srec.Unmarshal(buf[:slen])
		remote := it.SupplyW != in.W
		applyStockOrder(&srec, it.Qty, remote)
		if remote {
			res.RemoteLines++
		}
		srec.Marshal(t.img[:slen])
		if err := t.updateRow(core.Stock, skey, storage.UnpackRID(srid), buf[:slen], t.img[:slen]); err != nil {
			return res, t.fail(err)
		}

		amount := uint32(it.Qty) * irec.PriceCents
		olkey := index.KeyWDOL(in.W, in.D, oid, int64(n))
		if err := t.lockRow(core.OrderLine, olkey, lock.Exclusive); err != nil {
			return res, t.fail(err)
		}
		olrec := OrderLineRec{
			OID: uint32(oid), IID: uint32(it.IID), SupplyWID: uint16(it.SupplyW),
			WID: uint16(in.W), DID: uint8(in.D), Number: uint8(n),
			Quantity: uint8(it.Qty), AmountCents: amount,
		}
		olrec.Marshal(buf[:ollen])
		olrid, err := t.insertRow(core.OrderLine, olkey, buf[:ollen])
		if err != nil {
			return res, t.fail(err)
		}
		t.setIdx(d.olIdx, olkey, olrid.Pack())
		res.TotalCents += uint64(amount)
	}

	res.OID = oid
	return res, t.commit()
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

// Payment executes the Payment transaction.
func (s *Session) Payment(in PaymentInput) error {
	d := s.d
	t := s.begin()
	buf := t.buf

	// 1+4. Select and update warehouse.
	wlen := tpcc.TupleLen[core.Warehouse]
	if err := t.lockRow(core.Warehouse, uint64(in.W), lock.Exclusive); err != nil {
		return t.fail(err)
	}
	wrid, ok := d.warehouseIdx.get(uint64(in.W))
	if !ok {
		return t.fail(fmt.Errorf("db: no warehouse %d", in.W))
	}
	if err := t.readRec(core.Warehouse, storage.UnpackRID(wrid), buf[:wlen]); err != nil {
		return t.fail(err)
	}
	var wrec WarehouseRec
	wrec.Unmarshal(buf[:wlen])
	wrec.YTDCents += uint64(in.AmountCents)
	wrec.Marshal(t.img[:wlen])
	if err := t.updateRow(core.Warehouse, uint64(in.W), storage.UnpackRID(wrid), buf[:wlen], t.img[:wlen]); err != nil {
		return t.fail(err)
	}

	// 2+5. Select and update district.
	dlen := tpcc.TupleLen[core.District]
	dkey := index.KeyWD(in.W, in.D)
	if err := t.lockRow(core.District, dkey, lock.Exclusive); err != nil {
		return t.fail(err)
	}
	drid, ok := d.districtIdx.get(dkey)
	if !ok {
		return t.fail(fmt.Errorf("db: no district (%d,%d)", in.W, in.D))
	}
	if err := t.readRec(core.District, storage.UnpackRID(drid), buf[:dlen]); err != nil {
		return t.fail(err)
	}
	var drec DistrictRec
	drec.Unmarshal(buf[:dlen])
	drec.YTDCents += uint64(in.AmountCents)
	drec.Marshal(t.img[:dlen])
	if err := t.updateRow(core.District, dkey, storage.UnpackRID(drid), buf[:dlen], t.img[:dlen]); err != nil {
		return t.fail(err)
	}

	// 3. Select customer (by id, or non-unique select by name).
	cid := in.C
	if in.ByName {
		var err error
		cid, _, err = t.middleCustomerByName(in.CW, in.CD, in.NameOrd, buf)
		if err != nil {
			return t.fail(err)
		}
	}

	// 6. Update customer.
	clen := tpcc.TupleLen[core.Customer]
	ckey := index.KeyWDC(in.CW, in.CD, cid)
	if err := t.lockRow(core.Customer, ckey, lock.Exclusive); err != nil {
		return t.fail(err)
	}
	crid, ok := d.customerIdx.get(ckey)
	if !ok {
		return t.fail(fmt.Errorf("db: no customer (%d,%d,%d)", in.CW, in.CD, cid))
	}
	if err := t.readRec(core.Customer, storage.UnpackRID(crid), buf[:clen]); err != nil {
		return t.fail(err)
	}
	var crec CustomerRec
	crec.Unmarshal(buf[:clen])
	crec.BalanceCents -= int64(in.AmountCents)
	crec.YTDPayCents += uint64(in.AmountCents)
	crec.PaymentCount++
	crec.Marshal(t.img[:clen])
	if err := t.updateRow(core.Customer, ckey, storage.UnpackRID(crid), buf[:clen], t.img[:clen]); err != nil {
		return t.fail(err)
	}

	// 7. Insert history (no index; no lock needed — the row is invisible
	// to every other transaction).
	hlen := tpcc.TupleLen[core.History]
	hrec := HistoryRec{
		CID: uint32(cid), CWID: uint16(in.CW), CDID: uint8(in.CD),
		DID: uint8(in.D), WID: uint16(in.W),
		AmountCents: in.AmountCents, Tick: d.nextTick(),
	}
	hrec.Marshal(buf[:hlen])
	if _, err := t.insertRec(core.History, buf[:hlen]); err != nil {
		return t.fail(err)
	}

	return t.commit()
}

// middleCustomerByName implements the benchmark's non-unique select: all
// customers of (w, d) sharing the last name are read (under S locks with
// 2PL, snapshot reads with mvcc; customers are never inserted or deleted,
// so the name group is the same set either way) and
// the middle one by customer id is returned, along with how many tuples
// the select touched (the Appendix A RC_cust remote-call measurement).
// The hit list lives in the transaction's scratch and is ordered with an
// insertion sort (sort.Slice would allocate its reflect-based swapper;
// name groups average ~3 customers, so the O(n²) sort is also faster).
func (t *txn) middleCustomerByName(w, d, nameOrd int64, buf []byte) (int64, int, error) {
	lo, hi := index.RangeWDNC(w, d, nameOrd)
	t.hits = t.hits[:0]
	t.d.custNameIdx.ascendRange(lo, hi, func(k, v uint64) bool {
		t.hits = append(t.hits, custHit{cid: int64(k & 0xffff), rid: v})
		return true
	})
	hits := t.hits
	if len(hits) == 0 {
		return 0, 0, fmt.Errorf("db: no customer named %d in (%d,%d)", nameOrd, w, d)
	}
	for i := 1; i < len(hits); i++ {
		h := hits[i]
		j := i - 1
		for j >= 0 && hits[j].cid > h.cid {
			hits[j+1] = hits[j]
			j--
		}
		hits[j+1] = h
	}
	clen := tpcc.TupleLen[core.Customer]
	for _, h := range hits {
		if _, err := t.snapRead(core.Customer, index.KeyWDC(w, d, h.cid), storage.UnpackRID(h.rid), buf[:clen]); err != nil {
			return 0, 0, err
		}
	}
	return hits[len(hits)/2].cid, len(hits), nil
}

// OrderStatusInput parameterizes the Order-Status transaction.
type OrderStatusInput struct {
	W, D    int64
	ByName  bool
	C       int64
	NameOrd int64
}

// OrderStatusResult reports the customer's last order.
type OrderStatusResult struct {
	CID   int64
	OID   int64
	Lines int
}

// OrderStatus executes the read-only Order-Status transaction.
func (s *Session) OrderStatus(in OrderStatusInput) (OrderStatusResult, error) {
	d := s.d
	t := s.begin()
	var res OrderStatusResult
	buf := t.buf

	cid := in.C
	if in.ByName {
		var err error
		cid, _, err = t.middleCustomerByName(in.W, in.D, in.NameOrd, buf)
		if err != nil {
			return res, t.fail(err)
		}
	} else {
		clen := tpcc.TupleLen[core.Customer]
		ckey := index.KeyWDC(in.W, in.D, cid)
		crid, ok := d.customerIdx.get(ckey)
		if !ok {
			return res, t.fail(fmt.Errorf("db: no customer (%d,%d,%d)", in.W, in.D, cid))
		}
		if _, err := t.snapRead(core.Customer, ckey, storage.UnpackRID(crid), buf[:clen]); err != nil {
			return res, t.fail(err)
		}
	}
	res.CID = cid

	// Select(Max(order-id)): lookups in the (w,d,c,o) index, walking
	// downward past orders not visible at the snapshot (an mvcc reader
	// may see the index entry of an order committed after it began; under
	// 2PL the newest entry is always live and the loop runs once).
	lo, hi := index.RangeWDCO(in.W, in.D, cid)
	olenOrd := tpcc.TupleLen[core.Order]
	var oid int64
	for {
		k, orid, ok := d.custOrderIdx.max(hi)
		if !ok || k < lo {
			// No order visible (cannot happen after a standard load).
			return res, t.commit()
		}
		oid = int64(k & (1<<28 - 1))
		okey := index.KeyWDO(in.W, in.D, oid)
		live, err := t.snapRead(core.Order, okey, storage.UnpackRID(orid), buf[:olenOrd])
		if err != nil {
			return res, t.fail(err)
		}
		if live {
			break
		}
		hi = k - 1
	}
	var orec OrderRec
	orec.Unmarshal(buf[:olenOrd])
	res.OID = oid

	// Each order line of the last order (the order is visible, so its
	// lines — committed atomically with it — are visible too).
	ollen := tpcc.TupleLen[core.OrderLine]
	lo, hi = index.RangeWDOLOrder(in.W, in.D, oid)
	t.rids = t.rids[:0]
	d.olIdx.ascendRange(lo, hi, func(k, v uint64) bool {
		t.rids = append(t.rids, v)
		return true
	})
	for i, rid := range t.rids {
		olkey := index.KeyWDOL(in.W, in.D, oid, int64(i))
		live, err := t.snapRead(core.OrderLine, olkey, storage.UnpackRID(rid), buf[:ollen])
		if err != nil {
			return res, t.fail(err)
		}
		if !live {
			continue
		}
		res.Lines++
	}

	return res, t.commit()
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
	d := s.d
	t := s.begin()
	var res DeliveryResult

	for dist := int64(0); dist < tpcc.DistrictsPerWarehouse; dist++ {
		delivered, err := d.deliverDistrict(t, in, dist)
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

func (d *DB) deliverDistrict(t *txn, in DeliveryInput, dist int64) (bool, error) {
	buf := t.buf
	lo, hi := index.RangeWDO(in.W, dist)
	for {
		// Select(Min(order-id)) from New-Order via the index.
		k, norid, ok := d.newOrderIdx.min(lo)
		if !ok || k > hi {
			return false, nil
		}
		oid := int64(k & (1<<40 - 1))
		if err := t.lockRow(core.NewOrder, k, lock.Exclusive); err != nil {
			return false, err
		}
		// Revalidate after the wait: another Delivery may have taken it.
		if cur, ok := d.newOrderIdx.get(k); !ok || cur != norid {
			continue
		}

		nolen := tpcc.TupleLen[core.NewOrder]
		if err := t.readRec(core.NewOrder, storage.UnpackRID(norid), buf[:nolen]); err != nil {
			return false, err
		}
		if err := t.deleteRow(core.NewOrder, k, storage.UnpackRID(norid), buf[:nolen]); err != nil {
			return false, err
		}
		if err := t.delIdx(d.newOrderIdx, k, norid); err != nil {
			return false, err
		}

		// Select + update the order (stamp the carrier).
		olenOrd := tpcc.TupleLen[core.Order]
		orid, ok := d.orderIdx.get(k)
		if !ok {
			return false, fmt.Errorf("db: new-order %d without order", oid)
		}
		if err := t.lockRow(core.Order, k, lock.Exclusive); err != nil {
			return false, err
		}
		if err := t.readRec(core.Order, storage.UnpackRID(orid), buf[:olenOrd]); err != nil {
			return false, err
		}
		var orec OrderRec
		orec.Unmarshal(buf[:olenOrd])
		orec.CarrierID = in.Carrier
		orec.Marshal(t.img[:olenOrd])
		if err := t.updateRow(core.Order, k, storage.UnpackRID(orid), buf[:olenOrd], t.img[:olenOrd]); err != nil {
			return false, err
		}

		// Select + update each order line (stamp delivery, sum amounts).
		ollen := tpcc.TupleLen[core.OrderLine]
		tick := d.nextTick()
		var total uint64
		for l := int64(0); l < int64(orec.OLCount); l++ {
			olkey := index.KeyWDOL(in.W, dist, oid, l)
			olrid, ok := d.olIdx.get(olkey)
			if !ok {
				return false, fmt.Errorf("db: order %d missing line %d", oid, l)
			}
			if err := t.lockRow(core.OrderLine, olkey, lock.Exclusive); err != nil {
				return false, err
			}
			if err := t.readRec(core.OrderLine, storage.UnpackRID(olrid), buf[:ollen]); err != nil {
				return false, err
			}
			var olrec OrderLineRec
			olrec.Unmarshal(buf[:ollen])
			olrec.DeliveryTick = tick
			total += uint64(olrec.AmountCents)
			olrec.Marshal(t.img[:ollen])
			if err := t.updateRow(core.OrderLine, olkey, storage.UnpackRID(olrid), buf[:ollen], t.img[:ollen]); err != nil {
				return false, err
			}
		}

		// Select + update the customer (credit the balance).
		clen := tpcc.TupleLen[core.Customer]
		ckey := index.KeyWDC(in.W, dist, int64(orec.CID))
		if err := t.lockRow(core.Customer, ckey, lock.Exclusive); err != nil {
			return false, err
		}
		crid, ok := d.customerIdx.get(ckey)
		if !ok {
			return false, fmt.Errorf("db: order %d names unknown customer %d", oid, orec.CID)
		}
		if err := t.readRec(core.Customer, storage.UnpackRID(crid), buf[:clen]); err != nil {
			return false, err
		}
		var crec CustomerRec
		crec.Unmarshal(buf[:clen])
		crec.BalanceCents += int64(total)
		crec.DeliveryCount++
		crec.Marshal(t.img[:clen])
		if err := t.updateRow(core.Customer, ckey, storage.UnpackRID(crid), buf[:clen], t.img[:clen]); err != nil {
			return false, err
		}
		return true, nil
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
	d := s.d
	t := s.begin()
	buf := t.buf

	// First select: the district's next order id. Under mvcc the whole
	// join below is consistent by construction: if the snapshot's
	// district shows NextOID = n, every order below n committed at or
	// before the snapshot, together with its order lines.
	dlen := tpcc.TupleLen[core.District]
	dkey := index.KeyWD(in.W, in.D)
	drid, ok := d.districtIdx.get(dkey)
	if !ok {
		return 0, t.fail(fmt.Errorf("db: no district (%d,%d)", in.W, in.D))
	}
	if _, err := t.snapRead(core.District, dkey, storage.UnpackRID(drid), buf[:dlen]); err != nil {
		return 0, t.fail(err)
	}
	var drec DistrictRec
	drec.Unmarshal(buf[:dlen])

	// Join: order lines of orders [next-20, next) against stock.
	loOID := int64(drec.NextOID) - tpcc.StockLevelOrders
	if loOID < 0 {
		loOID = 0
	}
	ollen := tpcc.TupleLen[core.OrderLine]
	slen := tpcc.TupleLen[core.Stock]
	lo := index.KeyWDOL(in.W, in.D, loOID, 0)
	hi := index.KeyWDOL(in.W, in.D, int64(drec.NextOID)-1, 255)
	t.refs = t.refs[:0]
	d.olIdx.ascendRange(lo, hi, func(k, v uint64) bool {
		t.refs = append(t.refs, olref{key: k, rid: v})
		return true
	})
	// The distinct-item set is a linear-scan slice, not a map: the scan
	// covers at most 20 orders × 10 lines, and the slice is reusable
	// transaction scratch while a map would allocate per transaction.
	t.seen = t.seen[:0]
	low := 0
	for _, ref := range t.refs {
		live, err := t.snapRead(core.OrderLine, ref.key, storage.UnpackRID(ref.rid), buf[:ollen])
		if err != nil {
			return 0, t.fail(err)
		}
		if !live {
			// An index entry for an order line committed after the
			// snapshot (mvcc only): not part of this cut.
			continue
		}
		var olrec OrderLineRec
		olrec.Unmarshal(buf[:ollen])

		skey := index.KeyWI(in.W, int64(olrec.IID))
		srid, ok := d.stockIdx.get(skey)
		if !ok {
			return 0, t.fail(fmt.Errorf("db: no stock (%d,%d)", in.W, olrec.IID))
		}
		if _, err := t.snapRead(core.Stock, skey, storage.UnpackRID(srid), buf[:slen]); err != nil {
			return 0, t.fail(err)
		}
		var srec StockRec
		srec.Unmarshal(buf[:slen])
		if srec.Quantity < in.Threshold {
			seen := false
			for _, id := range t.seen {
				if id == srec.IID {
					seen = true
					break
				}
			}
			if !seen {
				t.seen = append(t.seen, srec.IID)
				low++
			}
		}
	}
	if err := t.commit(); err != nil {
		return 0, err
	}
	return low, nil
}
