package db

import (
	"fmt"
	"slices"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// The oracle of the batched joins: Stock-Level, Order-Status and the
// by-name customer select as they read before their rows were read in
// batches, one snapRead per row. The bodies in procs.go must return what
// these return, at the same lock acquires and the same buffer-pool
// accesses.

// olref is one order line found by an index range scan.
type olref struct{ key, rid uint64 }

// olRefs returns the order lines the order-line index holds in [lo, hi].
func (t *txn) olRefs(lo, hi uint64) []olref {
	var refs []olref
	t.d.idx[idxOrderLine].ascendRange(lo, hi, func(k, v uint64) bool {
		refs = append(refs, olref{key: k, rid: v})
		return true
	})
	return refs
}

func (t *txn) rowStockLevel(in StockLevelInput) (int, error) {
	cur, err := t.snap(core.District, index.KeyWD(in.W, in.D), tpcc.TupleLen[core.District])
	if err != nil {
		return 0, err
	}
	var drec DistrictRec
	drec.Unmarshal(cur)
	loOID := max(int64(drec.NextOID)-tpcc.StockLevelOrders, 0)
	lo := index.KeyWDOL(in.W, in.D, loOID, 0)
	hi := index.KeyWDOL(in.W, in.D, int64(drec.NextOID)-1, 255)
	t.seen = t.seen[:0]
	olbuf := t.buf[:olItemEnd]
	var olrec OrderLineRec
	var srec StockRec
	for _, ref := range t.olRefs(lo, hi) {
		live, err := t.snapRead(core.OrderLine, ref.key, storage.UnpackRID(ref.rid), olbuf)
		if err != nil {
			return 0, err
		}
		if !live {
			continue
		}
		olrec.unmarshalItem(olbuf)
		cur, err := t.snap(core.Stock, index.KeyWI(in.W, int64(olrec.IID)), stockQtyEnd)
		if err != nil {
			return 0, err
		}
		srec.unmarshalQty(cur)
		if srec.Quantity < in.Threshold && !slices.Contains(t.seen, srec.IID) {
			t.seen = append(t.seen, srec.IID)
		}
	}
	return len(t.seen), nil
}

func (t *txn) rowMiddleCustomerByName(w, d, nameOrd int64, mid *CustomerRec) (int64, int, error) {
	hits := t.nameGroup(w, d, nameOrd)
	if len(hits) == 0 {
		return 0, 0, fmt.Errorf("db: no customer named %d in (%d,%d)", nameOrd, w, d)
	}
	rec := t.buf[:custHeadEnd]
	for i, h := range hits {
		if _, err := t.snapRead(core.Customer, index.KeyWDC(w, d, h.cid), storage.UnpackRID(h.rid), rec); err != nil {
			return 0, 0, err
		}
		if mid != nil && i == len(hits)/2 {
			mid.unmarshalHead(rec)
		}
	}
	return hits[len(hits)/2].cid, len(hits), nil
}

func (t *txn) rowOrderStatus(in OrderStatusInput, res *OrderStatusResult) error {
	d := t.d
	t.planOrderStatus(in)
	var crec CustomerRec
	cid := in.C
	if in.ByName {
		var err error
		if cid, _, err = t.rowMiddleCustomerByName(in.W, in.D, in.NameOrd, &crec); err != nil {
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

	olBuf := t.buf[:olStatusEnd]
	lo, hi = index.RangeWDOLOrder(in.W, in.D, oid)
	var olrec OrderLineRec
	for _, ref := range t.olRefs(lo, hi) {
		live, err := t.snapRead(core.OrderLine, ref.key, storage.UnpackRID(ref.rid), olBuf)
		if err != nil {
			return err
		}
		if !live {
			continue
		}
		if res.Lines < maxStatusLines {
			olrec.unmarshalStatus(olBuf)
			res.Line[res.Lines] = OrderStatusLine{
				IID: olrec.IID, SupplyWID: olrec.SupplyWID, Quantity: olrec.Quantity,
				AmountCents: olrec.AmountCents, DeliveryTick: olrec.DeliveryTick,
			}
		}
		res.Lines++
	}
	return nil
}

// TestBatchedJoinsMatchRowAtATime: after a seeded two-worker run of the
// full mix on one warehouse, under 2pl, mvcc and ssi, every Stock-Level,
// Order-Status and by-name customer select of a few hundred inputs the
// Runner draws gets the same result through its batched body as through
// the row-at-a-time oracle, at the same lock acquires and pool hits and
// misses.
func TestBatchedJoinsMatchRowAtATime(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 32768, CC: cc})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Load(11); err != nil {
				t.Fatal(err)
			}
			if _, err := RunConcurrentPolicy(d, 11, tpcc.DefaultMix(), 3000, 2); err != nil {
				t.Fatal(err)
			}
			batched, rows := d.NewSession(), d.NewSession()
			// run runs body in a transaction of s and returns what it cost.
			run := func(s *Session, body func(tx *txn) error) readCost {
				t.Helper()
				return costOf(d, func() {
					tx := s.begin()
					if err := tx.finish(body(tx)); err != nil {
						t.Fatal(err)
					}
				})
			}
			rn := NewRunner(d, 23, tpcc.DefaultMix())
			var names int
			for i := range 300 {
				switch i % 3 {
				case 0:
					rn.prepareArgs(core.TxnStockLevel)
					in := rn.args.stockLevel
					var got, want int
					bc := run(batched, func(tx *txn) (err error) { got, err = tx.stockLevel(in); return })
					rc := run(rows, func(tx *txn) (err error) { want, err = tx.rowStockLevel(in); return })
					if got != want || bc != rc {
						t.Fatalf("Stock-Level %+v: %d at %+v, row at a time %d at %+v", in, got, bc, want, rc)
					}
				case 1:
					rn.prepareArgs(core.TxnOrderStatus)
					in := rn.args.orderStatus
					var got, want OrderStatusResult
					bc := run(batched, func(tx *txn) error { return tx.orderStatus(in, &got) })
					rc := run(rows, func(tx *txn) error { return tx.rowOrderStatus(in, &want) })
					if got != want || bc != rc {
						t.Fatalf("Order-Status %+v:\n got %+v at %+v\nwant %+v at %+v", in, got, bc, want, rc)
					}
				case 2:
					// Payment's name group, selected without the payment.
					rn.prepareArgs(core.TxnPayment)
					for !rn.args.payment.ByName {
						rn.prepareArgs(core.TxnPayment)
					}
					in := rn.args.payment
					type pick struct {
						cid int64
						n   int
						mid CustomerRec
					}
					var got, want pick
					bc := run(batched, func(tx *txn) (err error) {
						got.cid, got.n, err = tx.middleCustomerByName(in.CW, in.CD, in.NameOrd, &got.mid)
						return
					})
					rc := run(rows, func(tx *txn) (err error) {
						want.cid, want.n, err = tx.rowMiddleCustomerByName(in.CW, in.CD, in.NameOrd, &want.mid)
						return
					})
					if got != want || bc != rc {
						t.Fatalf("name group %+v: %+v at %+v, row at a time %+v at %+v", in, got, bc, want, rc)
					}
					names += got.n
				}
			}
			if names <= 100 {
				t.Errorf("the name groups held %d customers in all: the batches were not groups", names)
			}
		})
	}
}

// TestBatchSkipsLinesNewerThanSnapshot: an order line whose index entry a
// transaction committed after the reader's snapshot is in Stock-Level's
// range but not in its cut. The batched join skips it, as the row-at-a-time
// oracle does, and a reader that begins after the commit counts it.
func TestBatchSkipsLinesNewerThanSnapshot(t *testing.T) {
	const dist, threshold = 3, 200 // every fixture stock row is below 200
	for _, cc := range []CCMode{CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			d := openTiny(t, cc)
			line := func(number uint8, iid uint32) *OrderLineRec {
				return &OrderLineRec{OID: 0, DID: dist, Number: number, IID: iid}
			}
			old := d.NewSession().begin()
			fixtureRow(t, old, core.OrderLine, line(0, 1))
			if err := old.commit(); err != nil {
				t.Fatal(err)
			}
			in := StockLevelInput{W: 0, D: dist, Threshold: threshold}
			btx, rtx := d.NewSession().begin(), d.NewSession().begin()
			w := d.NewSession().begin()
			fixtureRow(t, w, core.OrderLine, line(1, 2))
			if err := w.commit(); err != nil {
				t.Fatal(err)
			}
			var got, want int
			var err error
			bc := costOf(d, func() { got, err = btx.stockLevel(in) })
			if err != nil {
				t.Fatal(err)
			}
			rc := costOf(d, func() { want, err = rtx.rowStockLevel(in) })
			if err != nil {
				t.Fatal(err)
			}
			for _, tx := range []*txn{btx, rtx} {
				if err := tx.commit(); err != nil {
					t.Fatal(err)
				}
			}
			if got != 1 || want != 1 || bc != rc {
				t.Fatalf("Stock-Level at the old snapshot: %d at %+v, row at a time %d at %+v; want 1 (the newer line skipped)", got, bc, want, rc)
			}
			if now, err := d.StockLevel(in); err != nil || now != 2 {
				t.Fatalf("Stock-Level after the commit = %d, %v; want 2", now, err)
			}
		})
	}
}

// TestBatchReadSeesNoAbortedImage splits snapReadAll into its steps around
// another session's rollback, as TestSnapReadSeesNoAbortedImage does
// snapRead: the reader loads the gates of every district of the fixture,
// reads them all in one batch — the writer's uncommitted image of one among
// them — and resolves them only after the writer has rolled back. The
// aborted row's resolution must refuse, its re-read through snapRead must
// return the committed image, and every other row is the committed one too.
func TestBatchReadSeesNoAbortedImage(t *testing.T) {
	const dirty = 5
	for _, cc := range []CCMode{CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			d := openTiny(t, cc)
			r := d.NewSession().begin()
			w := d.NewSession().begin()
			if err := tinyWriteDistrict(w, dirty, func(dr *DistrictRec) { dr.YTDCents = 12345 }); err != nil {
				t.Fatal(err)
			}
			var keys []uint64
			var rids []storage.RID
			for dist := range int64(tinyDistricts) {
				rid, _ := d.idx[idxDistrict].get(distKey(dist))
				keys, rids = append(keys, distKey(dist)), append(rids, storage.UnpackRID(rid))
			}
			n := tpcc.TupleLen[core.District]
			rows, live := make([]byte, len(keys)*n), make([]bool, len(keys))

			r.gateAll(core.District, keys)
			if err := d.heaps[core.District].ReadRecords(rids, n, rows, live); err != nil {
				t.Fatal(err)
			}
			var dr DistrictRec
			dr.Unmarshal(rows[dirty*n : (dirty+1)*n])
			if !live[dirty] || dr.YTDCents != 12345 {
				t.Fatalf("the batch did not read the writer's image (live %v, YTD %d)", live[dirty], dr.YTDCents)
			}
			if err := w.rollbackWith(0); err != nil {
				t.Fatal(err)
			}
			before := d.BufferStats().Accesses()
			if err := r.resolveAll(core.District, keys, rids, n, rows, live); err != nil {
				t.Fatal(err)
			}
			for i := range keys {
				dr.Unmarshal(rows[i*n : (i+1)*n])
				if !live[i] || dr.ID != uint32(i) || dr.YTDCents != 0 {
					t.Fatalf("district %d resolved to (live %v, %+v), want the committed image", i, live[i], dr)
				}
			}
			if reread := d.BufferStats().Accesses() - before; reread == 0 {
				t.Fatal("no row of the batch was read again: the aborted row's resolution did not refuse")
			}
			if err := r.commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
