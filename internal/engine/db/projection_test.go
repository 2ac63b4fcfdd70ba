package db

import (
	"slices"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// TestProjectionsPinLayout ties each projection to its record's layout. A
// record whose every field holds distinct bytes decodes through the
// projection to exactly the fields Unmarshal gives it, and each projection
// end is the offset just past the bytes Marshal writes for the projection's
// last field — so a layout change fails here instead of reading the wrong
// bytes.
func TestProjectionsPinLayout(t *testing.T) {
	// distinct fills n bytes with values no two fields share.
	distinct := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i*7 + 1)
		}
		return b
	}
	// end marshals a record in which only the projection's last field is
	// set, to all ones, and returns the offset past its last byte.
	end := func(n int, marshal func([]byte)) int {
		b := make([]byte, n)
		marshal(b)
		for i := n - 1; i >= 0; i-- {
			if b[i] != 0 {
				return i + 1
			}
		}
		return 0
	}

	// Stock: S_I_ID, S_W_ID, S_QUANTITY.
	n := tpcc.TupleLen[core.Stock]
	var s StockRec
	s.Unmarshal(distinct(n))
	buf := make([]byte, n)
	s.Marshal(buf)
	var sq StockRec
	sq.unmarshalQty(buf[:stockQtyEnd])
	if want := (StockRec{IID: s.IID, WID: s.WID, Quantity: s.Quantity}); sq != want {
		t.Errorf("stock projection decodes %+v, Unmarshal gives %+v", sq, want)
	}
	if e := end(n, func(b []byte) { (&StockRec{Quantity: -1}).Marshal(b) }); e != stockQtyEnd {
		t.Errorf("S_QUANTITY ends at %d, stockQtyEnd is %d", e, stockQtyEnd)
	}

	// Order line: the item projection and the status projection.
	n = tpcc.TupleLen[core.OrderLine]
	var ol OrderLineRec
	ol.Unmarshal(distinct(n))
	buf = make([]byte, n)
	ol.Marshal(buf)
	var oi OrderLineRec
	oi.unmarshalItem(buf[:olItemEnd])
	if want := (OrderLineRec{OID: ol.OID, IID: ol.IID}); oi != want {
		t.Errorf("order-line item projection decodes %+v, Unmarshal gives %+v", oi, want)
	}
	var os OrderLineRec
	os.unmarshalStatus(buf[:olStatusEnd])
	want := ol
	want.DistInfo = [26]byte{}
	if os != want {
		t.Errorf("order-line status projection decodes %+v, Unmarshal gives %+v", os, want)
	}
	if e := end(n, func(b []byte) { (&OrderLineRec{IID: ^uint32(0)}).Marshal(b) }); e != olItemEnd {
		t.Errorf("OL_I_ID ends at %d, olItemEnd is %d", e, olItemEnd)
	}
	if e := end(n, func(b []byte) { (&OrderLineRec{DeliveryTick: ^uint64(0)}).Marshal(b) }); e != olStatusEnd {
		t.Errorf("OL_DELIVERY_D ends at %d, olStatusEnd is %d", e, olStatusEnd)
	}

	// Warehouse: W_ID and W_TAX.
	if e := end(tpcc.TupleLen[core.Warehouse], (&WarehouseRec{TaxBP: ^uint32(0)}).Marshal); e != whTaxEnd {
		t.Errorf("W_TAX ends at %d, whTaxEnd is %d", e, whTaxEnd)
	}

	// Item: I_ID, I_IM_ID and I_PRICE.
	n = tpcc.TupleLen[core.Item]
	var it ItemRec
	it.Unmarshal(distinct(n))
	buf = make([]byte, n)
	it.Marshal(buf)
	var ip ItemRec
	ip.unmarshalPrice(buf[:itemPriceEnd])
	if want := (ItemRec{IID: it.IID, ImageID: it.ImageID, PriceCents: it.PriceCents}); ip != want {
		t.Errorf("item projection decodes %+v, Unmarshal gives %+v", ip, want)
	}
	if e := end(n, (&ItemRec{PriceCents: ^uint32(0)}).Marshal); e != itemPriceEnd {
		t.Errorf("I_PRICE ends at %d, itemPriceEnd is %d", e, itemPriceEnd)
	}

	// Customer: the fixed fields and C_LAST.
	n = tpcc.TupleLen[core.Customer]
	var c CustomerRec
	c.Unmarshal(distinct(n))
	buf = make([]byte, n)
	c.Marshal(buf)
	var ch CustomerRec
	ch.unmarshalHead(buf[:custHeadEnd])
	wantC := c
	clear(wantC.Data[custLastLen:])
	if ch != wantC {
		t.Errorf("customer projection decodes %+v, Unmarshal gives %+v", ch, wantC)
	}
	var last CustomerRec
	for i := range custLastLen {
		last.Data[i] = 0xff
	}
	if e := end(n, last.Marshal); e != custHeadEnd {
		t.Errorf("C_LAST ends at %d, custHeadEnd is %d", e, custHeadEnd)
	}
	for ord := range tpcc.NamesPerDistrict {
		if l := len(LastName(ord)); l > custLastLen {
			t.Fatalf("last name %q is %d bytes, C_LAST holds %d", LastName(ord), l, custLastLen)
		}
	}
}

// The oracle: Stock-Level and Order-Status as they were before their reads
// were projected, copying and decoding every row whole. The projected bodies
// in procs.go must return what these return, at the same locks and the same
// buffer-pool accesses.

func (t *txn) fullStockLevel(in StockLevelInput) (int, error) {
	cur, err := t.snap(core.District, index.KeyWD(in.W, in.D), tpcc.TupleLen[core.District])
	if err != nil {
		return 0, err
	}
	var drec DistrictRec
	drec.Unmarshal(cur)
	loOID := int64(drec.NextOID) - tpcc.StockLevelOrders
	if loOID < 0 {
		loOID = 0
	}
	lo := index.KeyWDOL(in.W, in.D, loOID, 0)
	hi := index.KeyWDOL(in.W, in.D, int64(drec.NextOID)-1, 255)
	t.seen = t.seen[:0]
	olbuf := t.buf[:tpcc.TupleLen[core.OrderLine]]
	for _, ref := range t.olRefs(lo, hi) {
		live, err := t.snapRead(core.OrderLine, ref.key, storage.UnpackRID(ref.rid), olbuf)
		if err != nil {
			return 0, err
		}
		if !live {
			continue
		}
		var olrec OrderLineRec
		olrec.Unmarshal(olbuf)
		cur, err := t.snap(core.Stock, index.KeyWI(in.W, int64(olrec.IID)), tpcc.TupleLen[core.Stock])
		if err != nil {
			return 0, err
		}
		var srec StockRec
		srec.Unmarshal(cur)
		if srec.Quantity < in.Threshold && !slices.Contains(t.seen, srec.IID) {
			t.seen = append(t.seen, srec.IID)
		}
	}
	return len(t.seen), nil
}

func (t *txn) fullMiddleCustomerByName(w, d, nameOrd int64, mid *CustomerRec) (int64, error) {
	hits := t.nameGroup(w, d, nameOrd)
	if len(hits) == 0 {
		return 0, nil
	}
	rec := t.buf[:tpcc.TupleLen[core.Customer]]
	for i, h := range hits {
		if _, err := t.snapRead(core.Customer, index.KeyWDC(w, d, h.cid), storage.UnpackRID(h.rid), rec); err != nil {
			return 0, err
		}
		if i == len(hits)/2 {
			mid.Unmarshal(rec)
		}
	}
	return hits[len(hits)/2].cid, nil
}

func (t *txn) fullOrderStatus(in OrderStatusInput, res *OrderStatusResult) error {
	d := t.d
	t.planOrderStatus(in)
	var crec CustomerRec
	cid := in.C
	if in.ByName {
		var err error
		if cid, err = t.fullMiddleCustomerByName(in.W, in.D, in.NameOrd, &crec); err != nil {
			return err
		}
	} else {
		cur, err := t.snap(core.Customer, index.KeyWDC(in.W, in.D, cid), tpcc.TupleLen[core.Customer])
		if err != nil {
			return err
		}
		crec.Unmarshal(cur)
	}
	res.CID = cid
	res.BalanceCents = crec.BalanceCents
	copy(res.Last[:], crec.Data[:])

	lo, hi := index.RangeWDCO(in.W, in.D, cid)
	ordBuf := t.buf[:tpcc.TupleLen[core.Order]]
	var oid int64
	for {
		k, orid, ok := d.idx[idxCustOrder].max(hi)
		if !ok || k < lo {
			return nil
		}
		oid = int64(k & (1<<28 - 1))
		live, err := t.snapRead(core.Order, index.KeyWDO(in.W, in.D, oid), storage.UnpackRID(orid), ordBuf)
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
	res.OID, res.EntryTick, res.Carrier = oid, orec.EntryTick, orec.CarrierID

	olBuf := t.buf[:tpcc.TupleLen[core.OrderLine]]
	lo, hi = index.RangeWDOLOrder(in.W, in.D, oid)
	for _, ref := range t.olRefs(lo, hi) {
		live, err := t.snapRead(core.OrderLine, ref.key, storage.UnpackRID(ref.rid), olBuf)
		if err != nil {
			return err
		}
		if !live {
			continue
		}
		var olrec OrderLineRec
		olrec.Unmarshal(olBuf)
		if res.Lines < maxStatusLines {
			res.Line[res.Lines] = OrderStatusLine{
				IID: olrec.IID, SupplyWID: olrec.SupplyWID, Quantity: olrec.Quantity,
				AmountCents: olrec.AmountCents, DeliveryTick: olrec.DeliveryTick,
			}
		}
		res.Lines++
	}
	return nil
}

// readCost is what one read-only transaction cost the lock manager and the
// buffer pool.
type readCost struct {
	locks        int64
	hits, misses int64
}

// costOf runs fn and returns what it cost d.
func costOf(d *DB, fn func()) readCost {
	l0, _, _ := d.LockCounts()
	b0 := d.BufferStats()
	fn()
	l1, _, _ := d.LockCounts()
	b1 := d.BufferStats()
	return readCost{locks: l1 - l0, hits: b1.Hits - b0.Hits, misses: b1.Misses - b0.Misses}
}

// TestProjectedReadsMatchFullTupleOracle runs the projected Stock-Level and
// Order-Status against the full-tuple oracle on one loaded warehouse, under
// 2pl, mvcc and ssi, with New-Orders, Payments and Deliveries between them:
// every input the Runner draws gets the same result from both, at the same
// lock acquires and pool hits and misses. A second leg opens both readers
// before New-Orders that re-stock the items of the district's last twenty
// orders: under mvcc and ssi the readers' snapshot predates those updates,
// so the projected stock reads resolve through version chains, and both
// must still see the snapshot's quantities.
func TestProjectedReadsMatchFullTupleOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) { testProjectionOracle(t, cc) })
	}
}

func testProjectionOracle(t *testing.T, cc CCMode) {
	d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 32768, CC: cc})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(5); err != nil {
		t.Fatal(err)
	}
	proj, full, other := d.NewSession(), d.NewSession(), d.NewSession()
	rn := NewRunner(d, 21, tpcc.DefaultMix())

	stockLevel := func(in StockLevelInput) {
		t.Helper()
		var got, want int
		pc := costOf(d, func() {
			tx := proj.begin()
			var err error
			got, err = tx.stockLevel(in)
			if err = tx.finish(err); err != nil {
				t.Fatal(err)
			}
		})
		fc := costOf(d, func() {
			tx := full.begin()
			var err error
			want, err = tx.fullStockLevel(in)
			if err = tx.finish(err); err != nil {
				t.Fatal(err)
			}
		})
		if got != want || pc != fc {
			t.Fatalf("Stock-Level %+v: %d at %+v, the oracle %d at %+v", in, got, pc, want, fc)
		}
	}
	orderStatus := func(in OrderStatusInput) {
		t.Helper()
		var got, want OrderStatusResult
		pc := costOf(d, func() {
			tx := proj.begin()
			if err := tx.finish(tx.orderStatus(in, &got)); err != nil {
				t.Fatal(err)
			}
		})
		fc := costOf(d, func() {
			tx := full.begin()
			if err := tx.finish(tx.fullOrderStatus(in, &want)); err != nil {
				t.Fatal(err)
			}
		})
		if got != want || pc != fc {
			t.Fatalf("Order-Status %+v:\n got %+v at %+v\nwant %+v at %+v", in, got, pc, want, fc)
		}
		if got.Lines == 0 || got.Last == [custLastLen]byte{} {
			t.Fatalf("Order-Status %+v found no order or no name: %+v", in, got)
		}
	}

	delivered := 0
	for i := range 400 {
		switch i % 8 {
		case 0, 3, 6:
			rn.prepareArgs(core.TxnNewOrder)
			if _, err := other.NewOrder(rn.args.newOrder); err != nil {
				t.Fatal(err)
			}
		case 1, 4:
			rn.prepareArgs(core.TxnStockLevel)
			stockLevel(rn.args.stockLevel)
		case 2, 5:
			rn.prepareArgs(core.TxnOrderStatus)
			orderStatus(rn.args.orderStatus)
		case 7:
			if i%32 == 7 {
				rn.prepareArgs(core.TxnDelivery)
				res, err := other.Delivery(rn.args.delivery)
				if err != nil {
					t.Fatal(err)
				}
				delivered += res.Delivered
			} else {
				rn.prepareArgs(core.TxnPayment)
				if err := other.Payment(rn.args.payment); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no Delivery delivered an order: Order-Status never saw a delivered line")
	}

	// The old-snapshot leg.
	in := StockLevelInput{W: 0, D: 3, Threshold: 20}
	before, err := d.StockLevel(in)
	if err != nil {
		t.Fatal(err)
	}
	items := restockable(t, d, in)
	if len(items) == 0 {
		t.Fatal("no item of the district's last twenty orders is within ten of the threshold")
	}
	ptx, ftx := proj.begin(), full.begin()
	for len(items) > 0 {
		k := min(len(items), tpcc.ItemsPerOrder)
		no := NewOrderInput{W: in.W, D: in.D, C: 1}
		for _, it := range items[:k] {
			no.Items = append(no.Items, OrderItem{IID: int64(it.IID), SupplyW: in.W, Qty: int64(it.Quantity - in.Threshold + 1)})
		}
		items = items[k:]
		if _, err := other.NewOrder(no); err != nil {
			t.Fatal(err)
		}
	}
	after, err := d.StockLevel(in)
	if err != nil {
		t.Fatal(err)
	}
	if after <= before {
		t.Fatalf("re-stocking left %d items below the threshold, %d before: the leg tests nothing", after, before)
	}
	var got, want int
	pc := costOf(d, func() { got, err = ptx.stockLevel(in) })
	if err != nil {
		t.Fatal(err)
	}
	fc := costOf(d, func() { want, err = ftx.fullStockLevel(in) })
	if err != nil {
		t.Fatal(err)
	}
	if err := ptx.finish(nil); err != nil {
		t.Fatal(err)
	}
	if err := ftx.finish(nil); err != nil {
		t.Fatal(err)
	}
	if got != want || pc != fc {
		t.Fatalf("old-snapshot Stock-Level: %d at %+v, the oracle %d at %+v", got, pc, want, fc)
	}
	if snapshot := d.cfg.CC != CC2PL; snapshot && got != before {
		t.Errorf("a snapshot older than the New-Orders counted %d, it should see the %d before them", got, before)
	} else if !snapshot && got != after {
		t.Errorf("2pl Stock-Level after the New-Orders counted %d, want %d", got, after)
	}
}

// restockable returns the distinct stock rows joined by Stock-Level in
// whose quantity sits in [Threshold, Threshold+10): a New-Order line of
// quantity Quantity-Threshold+1 takes each below the threshold.
func restockable(t *testing.T, d *DB, in StockLevelInput) []StockRec {
	t.Helper()
	read := func(rel core.Relation, rid uint64, out []byte) {
		if err := d.heaps[rel].Read(storage.UnpackRID(rid), out); err != nil {
			t.Fatal(err)
		}
	}
	var drec DistrictRec
	dbuf := make([]byte, tpcc.TupleLen[core.District])
	rid, _ := d.idx[idxDistrict].get(index.KeyWD(in.W, in.D))
	read(core.District, rid, dbuf)
	drec.Unmarshal(dbuf)
	lo := index.KeyWDOL(in.W, in.D, int64(drec.NextOID)-tpcc.StockLevelOrders, 0)
	hi := index.KeyWDOL(in.W, in.D, int64(drec.NextOID)-1, 255)
	var out []StockRec
	olbuf := make([]byte, tpcc.TupleLen[core.OrderLine])
	sbuf := make([]byte, tpcc.TupleLen[core.Stock])
	d.idx[idxOrderLine].ascendRange(lo, hi, func(_, v uint64) bool {
		var ol OrderLineRec
		read(core.OrderLine, v, olbuf)
		ol.Unmarshal(olbuf)
		srid, _ := d.idx[idxStock].get(index.KeyWI(in.W, int64(ol.IID)))
		var s StockRec
		read(core.Stock, srid, sbuf)
		s.Unmarshal(sbuf)
		if s.Quantity >= in.Threshold && s.Quantity < in.Threshold+10 &&
			!slices.ContainsFunc(out, func(o StockRec) bool { return o.IID == s.IID }) {
			out = append(out, s)
		}
		return true
	})
	return out
}

// fullNewOrder is New-Order as it was before its warehouse, customer and
// item reads were projected: each of the three copies the whole row, and
// the item is decoded whole for its price.
func (t *txn) fullNewOrder(in NewOrderInput) (NewOrderResult, error) {
	d := t.d
	var res NewOrderResult
	t.planNewOrder(in)
	if _, err := t.snap(core.Warehouse, uint64(in.W), tpcc.TupleLen[core.Warehouse]); err != nil {
		return res, err
	}
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
	if _, err := t.snap(core.Customer, index.KeyWDC(in.W, in.D, in.C), tpcc.TupleLen[core.Customer]); err != nil {
		return res, err
	}
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
	norec := NewOrderRec{OID: uint32(oid), WID: uint16(in.W), DID: uint8(in.D)}
	nolen := tpcc.TupleLen[core.NewOrder]
	norec.Marshal(buf[:nolen])
	if _, err := t.insertRow(core.NewOrder, buf[:nolen]); err != nil {
		return res, err
	}
	ollen := tpcc.TupleLen[core.OrderLine]
	for n, it := range in.Items {
		cur, err := t.snap(core.Item, uint64(it.IID), tpcc.TupleLen[core.Item])
		if err != nil {
			return res, err
		}
		var irec ItemRec
		irec.Unmarshal(cur)
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

// TestProjectedNewOrderMatchesFullTupleOracle runs one seeded stream of
// New-Orders, with Payments between them, through the projected body on
// one loaded warehouse and through fullNewOrder on a twin loaded from the
// same seed, under 2pl, mvcc and ssi: every New-Order must return the same
// result at the same lock acquires and pool hits and misses, and the two
// databases must end in the same state.
func TestProjectedNewOrderMatchesFullTupleOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			open := func() *DB {
				d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 32768, CC: cc})
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Load(5); err != nil {
					t.Fatal(err)
				}
				return d
			}
			pd, fd := open(), open()
			proj, full := pd.NewSession(), fd.NewSession()
			rn := NewRunner(pd, 23, tpcc.DefaultMix())
			var total uint64
			for i := range 400 {
				if i%4 == 3 {
					rn.prepareArgs(core.TxnPayment)
					if err := proj.Payment(rn.args.payment); err != nil {
						t.Fatal(err)
					}
					if err := full.Payment(rn.args.payment); err != nil {
						t.Fatal(err)
					}
					continue
				}
				rn.prepareArgs(core.TxnNewOrder)
				in := rn.args.newOrder
				var got, want NewOrderResult
				pc := costOf(pd, func() {
					tx := proj.begin()
					var err error
					got, err = tx.newOrder(in)
					if err = tx.finish(err); err != nil {
						t.Fatal(err)
					}
				})
				fc := costOf(fd, func() {
					tx := full.begin()
					var err error
					want, err = tx.fullNewOrder(in)
					if err = tx.finish(err); err != nil {
						t.Fatal(err)
					}
				})
				if got != want || pc != fc {
					t.Fatalf("New-Order %+v: %+v at %+v, the oracle %+v at %+v", in, got, pc, want, fc)
				}
				total += got.TotalCents
			}
			if total == 0 {
				t.Fatal("every New-Order priced its lines at zero: the item projection was never read")
			}
			if hp, hf := stateHash(t, pd), stateHash(t, fd); hp != hf {
				t.Fatalf("state hashes diverge: projected %016x, full rows %016x", hp, hf)
			}
		})
	}
}
