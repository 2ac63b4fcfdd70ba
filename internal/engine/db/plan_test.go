package db

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// heldDisk holds each data-area read of a page in hold until want of them
// are in flight at once, then lets them all go. Reads that never meet give
// up after a short wait, so an engine that reads one page at a time fails
// the count instead of hanging.
type heldDisk struct {
	*storage.MemDisk
	hold map[storage.PageID]bool
	want int

	mu       sync.Mutex
	inflight int
	maxSeen  int
	met      chan struct{}
}

func newHeldDisk(want int) *heldDisk {
	return &heldDisk{MemDisk: storage.NewMemDisk(), hold: map[storage.PageID]bool{}, want: want, met: make(chan struct{})}
}

func (d *heldDisk) Read(id storage.PageID, area storage.Area, buf []byte) error {
	if area == storage.AreaData && d.hold[id] {
		d.mu.Lock()
		d.inflight++
		if d.inflight > d.maxSeen {
			d.maxSeen = d.inflight
			if d.maxSeen == d.want {
				close(d.met)
			}
		}
		d.mu.Unlock()
		select {
		case <-d.met:
		case <-time.After(200 * time.Millisecond):
		}
		d.mu.Lock()
		d.inflight--
		d.mu.Unlock()
	}
	return d.MemDisk.Read(id, area, buf)
}

// coldPool is the frame count of openCold's pool: each fixture's load
// overflows it, so the pool has evicted and transactions plan, and one
// transaction's pages fit.
const coldPool = 16

// coldRow inserts one row of a cold fixture, keyed in g, through the logged
// path.
type coldRow func(rel core.Relation, g *relIndex, key uint64, rec interface{ Marshal([]byte) })

// openCold opens one warehouse in a coldPool-frame pool over disk, inserts
// what load inserts in one committed transaction, then checkpoints and drops
// the pool, so every page is cold.
func openCold(t *testing.T, cc CCMode, disk storage.DiskIO, load func(d *DB, ins coldRow)) *DB {
	t.Helper()
	d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: coldPool, CC: cc}, Options{Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	tx := d.NewSession().begin()
	buf := make([]byte, tpcc.TupleLen[core.Customer])
	load(d, func(rel core.Relation, g *relIndex, key uint64, rec interface{ Marshal([]byte) }) {
		t.Helper()
		row := buf[:tpcc.TupleLen[rel]]
		rec.Marshal(row)
		if _, err := tx.insertKeyed(rel, g, key, row); err != nil {
			t.Fatal(err)
		}
	})
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	if !d.buf.Evicted() {
		t.Fatal("the load fitted the pool: nothing would be planned")
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	return d
}

// slots is the rows of rel per 4096-byte page.
func slots(rel core.Relation) int { return storage.SlotsPerPage(4096, tpcc.TupleLen[rel]) }

// newOrderRows loads warehouse 0 with district 0, 60 customers, and items
// and stock rows 0 .. k*slots-1, where slots is the stock rows per page: the
// stock rows of items 0, slots, 2*slots, ... are on k different pages.
func newOrderRows(k int) func(*DB, coldRow) {
	return func(d *DB, ins coldRow) {
		ins(core.Warehouse, d.warehouseIdx, 0, &WarehouseRec{})
		ins(core.District, d.districtIdx, index.KeyWD(0, 0), &DistrictRec{NextOID: 1})
		for c := int64(0); c < 60; c++ {
			ins(core.Customer, d.customerIdx, index.KeyWDC(0, 0, c), &CustomerRec{ID: uint32(c), CreditLimit: 50000})
		}
		for i := 0; i < k*slots(core.Stock); i++ {
			ins(core.Item, d.itemIdx, uint64(i), &ItemRec{IID: uint32(i), PriceCents: 100})
			ins(core.Stock, d.stockIdx, index.KeyWI(0, int64(i)), &StockRec{IID: uint32(i), Quantity: 100})
		}
	}
}

// deliveryLines is the line count of each deliveryRows order.
const deliveryLines = 5

// deliveryRows loads, in each of districts 0 .. n-1 of warehouse 0, six
// pages of customers — so customer 0 of every district is on a page of its
// own, and the customers alone overflow the pool — and one undelivered order
// of customer 0 with its new-order row and deliveryLines lines.
func deliveryRows(n int) func(*DB, coldRow) {
	return func(d *DB, ins coldRow) {
		for dist := int64(0); dist < int64(n); dist++ {
			for c := int64(0); c < 6*int64(slots(core.Customer)); c++ {
				ins(core.Customer, d.customerIdx, index.KeyWDC(0, dist, c), &CustomerRec{ID: uint32(c), DID: uint32(dist)})
			}
		}
		for dist := int64(0); dist < int64(n); dist++ {
			key := index.KeyWDO(0, dist, 1)
			ins(core.Order, d.orderIdx, key, &OrderRec{OID: 1, DID: uint8(dist), OLCount: deliveryLines})
			ins(core.NewOrder, d.newOrderIdx, key, &NewOrderRec{OID: 1, DID: uint8(dist)})
			for l := int64(0); l < deliveryLines; l++ {
				ins(core.OrderLine, d.olIdx, index.KeyWDOL(0, dist, 1, l),
					&OrderLineRec{OID: 1, DID: uint8(dist), Number: uint8(l), Quantity: 1, AmountCents: 100})
			}
		}
	}
}

// pageOf returns the page of the row key names in g.
func pageOf(t *testing.T, g *relIndex, key uint64) storage.PageID {
	t.Helper()
	rid, ok := g.get(key)
	if !ok {
		t.Fatalf("no row %#x", key)
	}
	return storage.UnpackRID(rid).Page
}

// planWatch taps a pool for a transaction's planned pages: each must be
// reserved as a read-ahead while the transaction holds no row lock, and none
// read by the body's own pin. A read-ahead is tapped on the goroutine that
// plans it, the transaction's own, so the tap may read its lock Owner.
type planWatch struct {
	d       *DB
	planned map[storage.PageID]bool

	mu         sync.Mutex
	problems   []string
	readAheads int
}

func watchPlan(d *DB, s *Session, planned map[storage.PageID]bool) *planWatch {
	w := &planWatch{d: d, planned: planned}
	d.SetBufferTap(func(id storage.PageID, _ int, ev bufmgr.Event) {
		w.mu.Lock()
		defer w.mu.Unlock()
		if !planned[id] {
			return
		}
		switch ev {
		case bufmgr.Miss:
			w.problems = append(w.problems, fmt.Sprintf("page %d read by the worker's own pin", id))
		case bufmgr.ReadAhead:
			w.readAheads++
			if n := s.t.held.Held(); n != 0 {
				w.problems = append(w.problems, fmt.Sprintf("page %d read ahead with %d row locks held", id, n))
			}
		}
	})
	return w
}

// check removes the tap and reports what it saw, and how many of disk's held
// reads were in flight at once against the want of them.
func (w *planWatch) check(t *testing.T, cc CCMode, disk *heldDisk) {
	t.Helper()
	w.d.SetBufferTap(nil)
	w.mu.Lock()
	for _, p := range w.problems {
		t.Errorf("%v: %s", cc, p)
	}
	if w.readAheads != len(w.planned) {
		t.Errorf("%v: %d read-aheads, want one per planned page (%d)", cc, w.readAheads, len(w.planned))
	}
	w.mu.Unlock()
	disk.mu.Lock()
	if disk.maxSeen < disk.want {
		t.Errorf("%v: at most %d of the %d held reads in flight at once", cc, disk.maxSeen, disk.want)
	}
	disk.mu.Unlock()
}

// TestNewOrderReadsItsPagesAheadOfItsLocks: a New-Order whose customer, item
// and k stock pages are all cold has its k stock reads in flight at once,
// and reads none of those pages itself: each is reserved as a read-ahead
// while the transaction holds no row lock, and the body's pin claims it.
func TestNewOrderReadsItsPagesAheadOfItsLocks(t *testing.T) {
	const k = 4
	for _, cc := range []CCMode{CC2PL, CCMVCC} {
		disk := newHeldDisk(k)
		d := openCold(t, cc, disk, newOrderRows(k))

		in := NewOrderInput{W: 0, D: 0, C: 0}
		planned := map[storage.PageID]bool{pageOf(t, d.customerIdx, index.KeyWDC(0, 0, 0)): true}
		for i := 0; i < k; i++ {
			iid := int64(i * slots(core.Stock))
			in.Items = append(in.Items, OrderItem{IID: iid, SupplyW: 0, Qty: 1})
			planned[pageOf(t, d.itemIdx, uint64(iid))] = true
			stock := pageOf(t, d.stockIdx, index.KeyWI(0, iid))
			planned[stock] = true
			disk.hold[stock] = true
		}
		if len(disk.hold) != k {
			t.Fatalf("fixture: %d stock pages for %d lines", len(disk.hold), k)
		}

		s := d.NewSession()
		w := watchPlan(d, s, planned)
		if _, err := s.NewOrder(in); err != nil {
			t.Fatalf("%v: %v", cc, err)
		}
		w.check(t, cc, disk)
	}
}

// TestDeliveryReadsItsCustomersAhead: a Delivery over cold pages reads ahead
// each district's new-order row, order and lines, and then — the customer id
// Peeked off the order its first batch brought in — the customer the order
// names. The n customer reads are in flight at once, and the body's own pins
// read none of the planned pages: with Peek failing, or not reached through
// the heap, every customer would be a miss of the worker's own.
func TestDeliveryReadsItsCustomersAhead(t *testing.T) {
	const n = 3
	for _, cc := range []CCMode{CC2PL, CCMVCC} {
		disk := newHeldDisk(n)
		d := openCold(t, cc, disk, deliveryRows(n))

		planned := map[storage.PageID]bool{}
		for dist := int64(0); dist < n; dist++ {
			key := index.KeyWDO(0, dist, 1)
			planned[pageOf(t, d.newOrderIdx, key)] = true
			planned[pageOf(t, d.orderIdx, key)] = true
			for l := int64(0); l < deliveryLines; l++ {
				planned[pageOf(t, d.olIdx, index.KeyWDOL(0, dist, 1, l))] = true
			}
			cust := pageOf(t, d.customerIdx, index.KeyWDC(0, dist, 0))
			planned[cust] = true
			disk.hold[cust] = true
		}
		if len(disk.hold) != n {
			t.Fatalf("fixture: %d customer pages for %d districts", len(disk.hold), n)
		}

		s := d.NewSession()
		w := watchPlan(d, s, planned)
		res, err := s.Delivery(DeliveryInput{W: 0, Carrier: 1})
		if err != nil {
			t.Fatalf("%v: %v", cc, err)
		}
		if res.Delivered != n {
			t.Fatalf("%v: delivered %d orders, want %d", cc, res.Delivered, n)
		}
		w.check(t, cc, disk)
	}
}
