package db

import (
	"fmt"
	"sync"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// TestCrashRecoveryPreservesCommitted is the core durability test: run
// committed transactions, crash without checkpointing, recover, and verify
// every committed effect survived.
func TestCrashRecoveryPreservesCommitted(t *testing.T) {
	d := newLoaded(t, 1<<18)

	// Committed work after the load checkpoint.
	in := NewOrderInput{W: 0, D: 6, C: 123}
	for i := 0; i < 10; i++ {
		in.Items = append(in.Items, OrderItem{IID: int64(1000 + i), SupplyW: 0, Qty: 2})
	}
	placed, err := d.NewOrder(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Payment(PaymentInput{W: 0, D: 6, CW: 0, CD: 6, C: 123, AmountCents: 999}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Delivery(DeliveryInput{W: 0, Carrier: 7}); err != nil {
		t.Fatal(err)
	}

	balBefore := readCustomer(t, d, 0, 6, 123).BalanceCents
	ordersBefore := d.heaps[core.Order].Live()
	noBefore := d.heaps[core.NewOrder].Live()

	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}

	// The placed order and its lines are back.
	if _, ok := d.orderIdx.get(index.KeyWDO(0, 6, placed.OID)); !ok {
		t.Error("committed order lost")
	}
	for l := int64(0); l < 10; l++ {
		if _, ok := d.olIdx.get(index.KeyWDOL(0, 6, placed.OID, l)); !ok {
			t.Fatalf("committed order-line %d lost", l)
		}
	}
	// The district counter reflects the committed order.
	if rec := readDistrict(t, d, 0, 6); rec.NextOID != 3001 {
		t.Errorf("NextOID = %d, want 3001", rec.NextOID)
	}
	// The payment's balance change survived.
	if got := readCustomer(t, d, 0, 6, 123).BalanceCents; got != balBefore {
		t.Errorf("customer balance = %d, want %d", got, balBefore)
	}
	// Delivery's new-order deletions survived.
	if got := d.heaps[core.NewOrder].Live(); got != noBefore {
		t.Errorf("new-order rows = %d, want %d", got, noBefore)
	}
	if got := d.heaps[core.Order].Live(); got != ordersBefore {
		t.Errorf("order rows = %d, want %d", got, ordersBefore)
	}
	// The first delivered order (district 0, order 2100) kept its carrier.
	buf := make([]byte, tpcc.TupleLen[core.Order])
	rid, ok := d.orderIdx.get(index.KeyWDO(0, 0, 2100))
	if !ok {
		t.Fatal("order 2100 lost")
	}
	if err := d.heaps[core.Order].Read(storage.UnpackRID(rid), buf); err != nil {
		t.Fatal(err)
	}
	var orec OrderRec
	orec.Unmarshal(buf)
	if orec.CarrierID != 7 {
		t.Errorf("order 2100 carrier = %d, want 7", orec.CarrierID)
	}
	// The database still works after recovery.
	if _, err := d.NewOrder(in); err != nil {
		t.Fatal(err)
	}
}

// TestAbortRollsBackEverything aborts a New-Order mid-flight by injecting
// a failure (nonexistent item) and verifies no partial state remains.
func TestAbortRollsBackEverything(t *testing.T) {
	d := newLoaded(t, 1<<18)
	before := readDistrict(t, d, 0, 1)
	ordersBefore := d.heaps[core.Order].Live()
	olBefore := d.heaps[core.OrderLine].Live()

	in := NewOrderInput{W: 0, D: 1, C: 5}
	for i := 0; i < 9; i++ {
		in.Items = append(in.Items, OrderItem{IID: int64(i), SupplyW: 0, Qty: 1})
	}
	// The tenth item does not exist: the procedure fails after the
	// district update, order insert, and nine order-line inserts.
	in.Items = append(in.Items, OrderItem{IID: tpcc.ItemCount + 5, SupplyW: 0, Qty: 1})
	if _, err := d.NewOrder(in); err == nil {
		t.Fatal("expected failure on nonexistent item")
	}

	after := readDistrict(t, d, 0, 1)
	if after.NextOID != before.NextOID {
		t.Errorf("NextOID = %d, want rolled back %d", after.NextOID, before.NextOID)
	}
	if got := d.heaps[core.Order].Live(); got != ordersBefore {
		t.Errorf("order rows = %d, want %d", got, ordersBefore)
	}
	if got := d.heaps[core.OrderLine].Live(); got != olBefore {
		t.Errorf("order-line rows = %d, want %d", got, olBefore)
	}
	if _, ok := d.orderIdx.get(index.KeyWDO(0, 1, int64(before.NextOID))); ok {
		t.Error("aborted order still indexed")
	}
	if d.Aborts() != 1 {
		t.Errorf("aborts = %d", d.Aborts())
	}
	// And the slot is reusable: the same order succeeds without the bad
	// item.
	in.Items = in.Items[:9]
	if _, err := d.NewOrder(in); err != nil {
		t.Fatal(err)
	}
}

// TestCrashLosesUncommittedAfterImages verifies the redo-only protocol
// end to end: an aborted transaction's changes never reach the durable
// state even if its pages were flushed mid-flight by eviction pressure.
func TestCrashDiscardsAbortedWork(t *testing.T) {
	d := newLoaded(t, 1<<18)
	before := readDistrict(t, d, 0, 0)

	in := NewOrderInput{W: 0, D: 0, C: 1}
	in.Items = append(in.Items, OrderItem{IID: tpcc.ItemCount + 1, SupplyW: 0, Qty: 1})
	if _, err := d.NewOrder(in); err == nil {
		t.Fatal("expected failure")
	}

	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	after := readDistrict(t, d, 0, 0)
	if after.NextOID != before.NextOID {
		t.Errorf("aborted district update resurrected: %d vs %d", after.NextOID, before.NextOID)
	}
}

// TestRecoveryUnderStealPressure uses a pool so small that dirty pages of
// in-flight transactions are constantly flushed (steal), then crashes and
// verifies the before-image protocol restores exact committed state.
func TestRecoveryUnderStealPressure(t *testing.T) {
	d2, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Load(1); err != nil {
		t.Fatal(err)
	}
	rn := NewRunner(d2, 31, tpcc.DefaultMix())
	if err := rn.Run(120); err != nil {
		t.Fatal(err)
	}
	st := d2.BufferStats()
	if st.Flushes == 0 {
		t.Fatal("test needs steal pressure; no dirty flushes happened")
	}
	var nextBefore int64
	for dist := int64(0); dist < 10; dist++ {
		nextBefore += int64(readDistrict(t, d2, 0, dist).NextOID)
	}
	ordersBefore := d2.heaps[core.Order].Live()
	if err := d2.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := d2.Recover(); err != nil {
		t.Fatal(err)
	}
	var nextAfter int64
	for dist := int64(0); dist < 10; dist++ {
		nextAfter += int64(readDistrict(t, d2, 0, dist).NextOID)
	}
	if nextAfter != nextBefore {
		t.Errorf("sum(NextOID) changed across crash: %d -> %d", nextBefore, nextAfter)
	}
	if got := d2.heaps[core.Order].Live(); got != ordersBefore {
		t.Errorf("orders %d -> %d across crash", ordersBefore, got)
	}
	if nextAfter != d2.heaps[core.Order].Live() {
		t.Errorf("district counters (%d) disagree with orders (%d)",
			nextAfter, d2.heaps[core.Order].Live())
	}
}

// TestDeadlockRetryUnderContention forces lock-order inversions: pairs of
// New-Orders take X locks on the same two stock rows in opposite orders.
// The wait-for-graph detector must abort victims (never hang), undo their
// partial work, and retried executions must leave consistent state.
func TestDeadlockRetryUnderContention(t *testing.T) {
	d := newLoaded(t, 1<<18)
	const rounds = 200
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	run := func(items []OrderItem, cust int64) {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			for {
				_, err := d.NewOrder(NewOrderInput{W: 0, D: 0, C: cust, Items: items})
				if err == ErrAborted {
					continue
				}
				if err != nil {
					errs <- err
					return
				}
				break
			}
		}
	}
	wg.Add(2)
	go run([]OrderItem{{IID: 100, SupplyW: 0, Qty: 1}, {IID: 200, SupplyW: 0, Qty: 1}}, 1)
	go run([]OrderItem{{IID: 200, SupplyW: 0, Qty: 1}, {IID: 100, SupplyW: 0, Qty: 1}}, 2)
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	if d.Commits() != 2*rounds {
		t.Errorf("commits = %d, want %d", d.Commits(), 2*rounds)
	}
	// Stock order counts must reflect exactly the committed work.
	for _, iid := range []int64{100, 200} {
		rid, _ := d.stockIdx.get(index.KeyWI(0, iid))
		buf := make([]byte, tpcc.TupleLen[core.Stock])
		if err := d.heaps[core.Stock].Read(storage.UnpackRID(rid), buf); err != nil {
			t.Fatal(err)
		}
		var rec StockRec
		rec.Unmarshal(buf)
		if rec.OrderCount != 2*rounds {
			t.Errorf("stock %d order count = %d, want %d (aborted work leaked?)",
				iid, rec.OrderCount, 2*rounds)
		}
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryAfterConcurrentLoad runs a concurrent mixed workload, then
// crash+recover, and checks the structural invariants the workload
// maintains.
func TestRecoveryAfterConcurrentLoad(t *testing.T) {
	d := newLoaded(t, 1<<18)
	if err := RunConcurrent(d, 19, tpcc.DefaultMix(), 400, 4); err != nil {
		t.Fatal(err)
	}
	commits := d.Commits()
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	// Every order has exactly OLCount order lines, and district counters
	// match the orders present.
	var nextSum int64
	for dist := int64(0); dist < 10; dist++ {
		nextSum += int64(readDistrict(t, d, 0, dist).NextOID)
	}
	if orders := d.heaps[core.Order].Live(); nextSum != orders {
		t.Errorf("sum(NextOID) = %d but %d orders exist after recovery", nextSum, orders)
	}
	// Indexes agree with heap contents.
	if int64(d.orderIdx.t.Len()) != d.heaps[core.Order].Live() {
		t.Errorf("order index has %d entries, heap has %d rows",
			d.orderIdx.t.Len(), d.heaps[core.Order].Live())
	}
	if int64(d.olIdx.t.Len()) != d.heaps[core.OrderLine].Live() {
		t.Errorf("order-line index has %d entries, heap has %d rows",
			d.olIdx.t.Len(), d.heaps[core.OrderLine].Live())
	}
	if int64(d.newOrderIdx.t.Len()) != d.heaps[core.NewOrder].Live() {
		t.Errorf("new-order index has %d entries, heap has %d rows",
			d.newOrderIdx.t.Len(), d.heaps[core.NewOrder].Live())
	}
	// The system continues to function and the commit counter persists.
	rn := NewRunner(d, 23, tpcc.DefaultMix())
	if err := rn.Run(50); err != nil {
		t.Fatal(err)
	}
	if d.Commits() < commits+50 {
		t.Errorf("commits = %d, want >= %d", d.Commits(), commits+50)
	}
}

// TestRollbackRetriesTransientRead: an undo step has to pin its row's page,
// the page may have been evicted since the update, and the read that brings
// it back may hit a transient device error. A rollback cannot be rolled back
// and retried from outside, and giving up leaves the row changed with its
// lock released, so the step is retried in place: the row comes back and the
// rollback reports nothing.
func TestRollbackRetriesTransientRead(t *testing.T) {
	for _, cc := range []CCMode{CC2PL, CCMVCC} {
		// Reads come from whoever pins, and only this goroutine does.
		failNext, failed := storage.InvalidPage, 0
		disk := &hookedDisk{MemDisk: storage.NewMemDisk()}
		disk.onRead = func(id storage.PageID) error {
			if id != failNext {
				return nil
			}
			failNext = storage.InvalidPage
			failed++
			return fmt.Errorf("injected: %w", storage.ErrTransientIO)
		}
		d := openTinyOn(t, cc, walRulePool, disk)
		check := d.NewSession().begin()
		before, _ := tinyReadCustomer(t, check, 3)
		if err := check.commit(); err != nil {
			t.Fatal(err)
		}

		tx := d.NewSession().begin()
		if err := tinyWriteCustomer(tx, 3, func(c *CustomerRec) { c.BalanceCents = 777 }); err != nil {
			t.Fatal(err)
		}
		packed, _ := d.customerIdx.get(custKey(3))
		page := storage.UnpackRID(packed).Page
		touched := 0 // a pool's worth of other pages evicts this one
		pushOut(t, d, page, func() bool { touched++; return touched > walRulePool })
		failNext = page
		if err := tx.rollbackWith(0); err != nil {
			t.Fatalf("%v: rollback: %v", cc, err)
		}
		if failed != 1 {
			t.Fatalf("%v: the undo's page read failed %d times, want 1: the fault was not exercised", cc, failed)
		}
		check = d.NewSession().begin()
		after, live := tinyReadCustomer(t, check, 3)
		if !live || after != before {
			t.Errorf("%v: customer after rollback %+v, want %+v", cc, after, before)
		}
		if err := check.commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUncommittedDeleteKeepsItsSlot: while the transaction that deleted a row
// is open, no insert may take the row's heap slot — the deleter's rollback
// puts the row back at its old RID and would overwrite the newcomer, whose
// own commit or rollback then works on the wrong row (a Delivery chosen as
// deadlock victim after deleting a new-order row, beside a New-Order
// inserting one: "new-order: no record" some transactions later). Once the
// deleter has ended the slot is the next one handed out, as it always was.
func TestUncommittedDeleteKeepsItsSlot(t *testing.T) {
	for _, cc := range []CCMode{CC2PL, CCMVCC} {
		d := openTiny(t, cc)
		insert := func(tx *txn, item int64) storage.RID {
			t.Helper()
			buf := make([]byte, tpcc.TupleLen[core.Stock])
			(&StockRec{IID: uint32(item), Quantity: 1}).Marshal(buf)
			rid, err := tx.insertKeyed(core.Stock, d.stockIdx, index.KeyWI(0, item), buf)
			if err != nil {
				t.Fatal(err)
			}
			return rid
		}
		del := func(tx *txn, item int64) storage.RID {
			t.Helper()
			key := index.KeyWI(0, item)
			r, err := tx.fetch(core.Stock, d.stockIdx, key)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.deleteRow(core.Stock, key, r.rid, r.cur); err != nil {
				t.Fatal(err)
			}
			return r.rid
		}
		item := func(rid storage.RID) uint32 {
			t.Helper()
			buf := make([]byte, tpcc.TupleLen[core.Stock])
			if err := d.heaps[core.Stock].Read(rid, buf); err != nil {
				t.Fatalf("%v: row at %v: %v", cc, rid, err)
			}
			var s StockRec
			s.Unmarshal(buf)
			return s.IID
		}

		a := d.NewSession().begin()
		freed := del(a, 5)
		b := d.NewSession().begin()
		if got := insert(b, 99); got == freed {
			t.Fatalf("%v: an insert took slot %v while its delete was uncommitted", cc, freed)
		}
		if err := a.rollbackWith(0); err != nil {
			t.Fatal(err)
		}
		if err := b.commit(); err != nil {
			t.Fatal(err)
		}
		packed, _ := d.stockIdx.get(index.KeyWI(0, 99))
		if item(freed) != 5 || item(storage.UnpackRID(packed)) != 99 {
			t.Errorf("%v: after the deleter's rollback slot %v holds item %d and the insert's slot item %d, want 5 and 99",
				cc, freed, item(freed), item(storage.UnpackRID(packed)))
		}

		c := d.NewSession().begin()
		freed = del(c, 6)
		if err := c.commit(); err != nil {
			t.Fatal(err)
		}
		e := d.NewSession().begin()
		if got := insert(e, 100); got != freed {
			t.Errorf("%v: insert after a committed delete went to %v, want the freed slot %v", cc, got, freed)
		}
		if err := e.commit(); err != nil {
			t.Fatal(err)
		}
	}
}
