package db

import (
	"bytes"
	"sync"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// hookedDisk is a MemDisk that reports every data-area page write to onWrite
// as it arrives, before the image lands, and lets onRead fail a data-area
// page read. Either hook may be nil.
type hookedDisk struct {
	*storage.MemDisk
	onWrite func(id storage.PageID)
	onRead  func(id storage.PageID) error
}

func (d *hookedDisk) Write(id storage.PageID, area storage.Area, buf []byte) error {
	if area == storage.AreaData && d.onWrite != nil {
		d.onWrite(id)
	}
	return d.MemDisk.Write(id, area, buf)
}

func (d *hookedDisk) Read(id storage.PageID, area storage.Area, buf []byte) error {
	if area == storage.AreaData && d.onRead != nil {
		if err := d.onRead(id); err != nil {
			return err
		}
	}
	return d.MemDisk.Read(id, area, buf)
}

// walRulePool is the pool the WAL-rule tests run the tiny fixture in: its
// five pages do not fit, so whatever page a transaction has just changed is
// the victim three page touches later.
const walRulePool = 3

// pushOut touches d's other pages until out reports that page has left the
// pool (or been written back: whatever the caller watches for).
func pushOut(t *testing.T, d *DB, page storage.PageID, out func() bool) {
	t.Helper()
	var others []storage.PageID
	for _, rel := range core.Relations() {
		for _, id := range d.heaps[rel].PageIDs() {
			if id != page {
				others = append(others, id)
			}
		}
	}
	for i := 0; !out(); i++ {
		if i == 4*len(others) {
			t.Fatalf("page %d was never pushed out", page)
		}
		p, err := d.buf.Pin(others[i%len(others)])
		if err != nil {
			t.Fatal(err)
		}
		d.buf.Unpin(p, false)
	}
}

// powerLossAtDurable crashes log device and pool with NOTHING of the log's
// unforced tail surviving — the worst case for a page that got ahead of its
// log. CrashTail draws how much of the tail lands first; the seed is picked
// so that the draw is zero.
func powerLossAtDurable(t *testing.T, d *DB) {
	t.Helper()
	durable := d.log.DurableSize()
	seed := uint64(1)
	for rng.New(seed).Int63n(d.log.Size()-durable+1) != 0 {
		seed++
	}
	if err := d.CrashPowerLoss(rng.New(seed)); err != nil {
		t.Fatal(err)
	}
	if d.log.Size() != durable {
		t.Fatalf("log cut to %d, want the durable %d", d.log.Size(), durable)
	}
}

// committedRows folds the log's records of committed transactions into the
// set of rows that should exist: the fixture is loaded through logged
// inserts, so a live heap row outside this set is one no surviving record
// accounts for.
func committedRows(t *testing.T, d *DB) map[[2]uint64][]byte {
	t.Helper()
	recs, _, err := d.log.Scan()
	if err != nil {
		t.Fatal(err)
	}
	committed := map[uint64]bool{}
	for _, r := range recs {
		if r.Type == wal.RecCommit {
			committed[r.Txn] = true
		}
	}
	rows := map[[2]uint64][]byte{}
	for _, r := range recs {
		if !committed[r.Txn] {
			continue
		}
		k := [2]uint64{uint64(r.Table), r.RID}
		switch r.Type {
		case wal.RecInsert:
			rows[k] = bytes.Clone(r.After)
		case wal.RecUpdate:
			copy(rows[k][r.Off:], r.After)
		case wal.RecDelete:
			delete(rows, k)
		}
	}
	return rows
}

// TestNoPageGetsAheadOfItsLog is the WAL rule at its narrowest: a transaction
// changes one row and stays open, its page is the pool's next victim and is
// written back, and the power fails right after that write with none of the
// log's unforced tail surviving. Whatever the page carried to disk, the log
// must have carried first: recovery has to find the change's record and undo
// it. An insert whose page is unpinned dirty BEFORE its record is appended
// fails this — the page goes out with the row, forcing the log only as far as
// it was before the record, and recovery never learns of the orphan.
func TestNoPageGetsAheadOfItsLog(t *testing.T) {
	type change struct {
		name string
		do   func(t *testing.T, tx *txn) storage.RID
	}
	changes := []change{
		{"insert", func(t *testing.T, tx *txn) storage.RID {
			buf := make([]byte, tpcc.TupleLen[core.Customer])
			(&CustomerRec{DID: 0, ID: 1}).Marshal(buf)
			rid, err := tx.insertRow(core.Customer, buf)
			if err != nil {
				t.Fatal(err)
			}
			return rid
		}},
		{"insert-new-page", func(t *testing.T, tx *txn) storage.RID {
			buf := make([]byte, tpcc.TupleLen[core.Order])
			(&OrderRec{OID: 0}).Marshal(buf)
			rid, err := tx.insertRow(core.Order, buf)
			if err != nil {
				t.Fatal(err)
			}
			return rid
		}},
		{"update", func(t *testing.T, tx *txn) storage.RID {
			if err := tinyWriteCustomer(tx, 3, func(c *CustomerRec) { c.BalanceCents = 777 }); err != nil {
				t.Fatal(err)
			}
			rid, _ := tx.d.idx[idxCustomer].get(custKey(3))
			return storage.UnpackRID(rid)
		}},
		{"delete", func(t *testing.T, tx *txn) storage.RID {
			key := index.KeyWI(0, 5)
			r, err := tx.fetch(core.Stock, key)
			if err != nil {
				t.Fatal(err)
			}
			if err := tx.deleteRow(core.Stock, r.rid, r.cur); err != nil {
				t.Fatal(err)
			}
			return r.rid
		}},
	}
	for _, cc := range []CCMode{CC2PL, CCMVCC} {
		for _, ch := range changes {
			t.Run(cc.String()+"/"+ch.name, func(t *testing.T) {
				var mu sync.Mutex
				written := map[storage.PageID]int{}
				disk := &hookedDisk{MemDisk: storage.NewMemDisk(), onWrite: func(id storage.PageID) {
					mu.Lock()
					written[id]++
					mu.Unlock()
				}}
				d := openTinyOn(t, cc, walRulePool, disk)
				// The consistency conditions want a district's next order id
				// one past its last order, and the fixture has no orders.
				setup := d.NewSession().begin()
				for dist := int64(0); dist < tinyDistricts; dist++ {
					if err := tinyWriteDistrict(setup, dist, func(r *DistrictRec) { r.NextOID = 0 }); err != nil {
						t.Fatal(err)
					}
				}
				if err := setup.commit(); err != nil {
					t.Fatal(err)
				}
				if err := d.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := d.CheckConsistency(); err != nil {
					t.Fatalf("fixture: %v", err)
				}
				want := committedRows(t, d)

				tx := d.NewSession().begin()
				page := ch.do(t, tx).Page
				mu.Lock()
				before := written[page]
				mu.Unlock()
				pushOut(t, d, page, func() bool {
					mu.Lock()
					defer mu.Unlock()
					return written[page] > before
				})
				powerLossAtDurable(t, d)
				if err := d.Recover(); err != nil {
					t.Fatal(err)
				}

				if err := d.CheckConsistency(); err != nil {
					t.Errorf("after recovery: %v", err)
				}
				live := 0
				for _, rel := range core.Relations() {
					if err := d.heaps[rel].Scan(func(rid storage.RID, rec []byte) bool {
						live++
						if img, ok := want[[2]uint64{uint64(rel), rid.Pack()}]; !ok {
							t.Errorf("%v row at %v has no surviving record", rel, rid)
						} else if !bytes.Equal(img, rec) {
							t.Errorf("%v row at %v is not the committed one", rel, rid)
						}
						return true
					}); err != nil {
						t.Fatal(err)
					}
				}
				if live != len(want) {
					t.Errorf("%d rows after recovery, %d committed", live, len(want))
				}
			})
		}
	}
}

// TestWALRuleAtEveryPageWrite checks the rule where it applies, at the
// device: whenever a page image arrives there, the log must be durable at
// least as far as it reached when that page was last dirtied. The test makes
// every change itself, one row operation at a time on a pool that evicts
// constantly, and notes the log's size after each against the row's page; the
// device wrapper compares. A note may lag the frame's own (the cleaner can
// write a page between a change and its note, and rollbacks dirty pages
// without one), which only ever makes the check weaker, never wrong.
func TestWALRuleAtEveryPageWrite(t *testing.T) {
	for _, cc := range []CCMode{CC2PL, CCMVCC} {
		var (
			mu      sync.Mutex
			noted   = map[storage.PageID]int64{}
			checked int // writes of pages with a note
		)
		disk := &hookedDisk{MemDisk: storage.NewMemDisk()}
		d := openTinyOn(t, cc, walRulePool, disk)
		disk.onWrite = func(id storage.PageID) {
			mu.Lock()
			need, ok := noted[id]
			if ok {
				checked++
			}
			mu.Unlock()
			if durable := d.log.DurableSize(); ok && durable < need {
				t.Errorf("%v: page %d written with the log durable to %d, last dirtied at %d", cc, id, durable, need)
			}
		}
		note := func(rid storage.RID) {
			mu.Lock()
			noted[rid.Page] = d.log.Size()
			mu.Unlock()
		}

		// Customers (0, dist, c) the run has committed, and the next c per
		// district; six customers fill a page, so inserts add pages fast.
		type cust struct{ dist, c int64 }
		var committed []cust
		for dist := int64(0); dist < tinyDistricts; dist++ {
			committed = append(committed, cust{dist, 0})
		}
		next := int64(1)
		r := rng.New(11)
		buf := make([]byte, tpcc.TupleLen[core.Customer])
		for i := 0; i < 300; i++ {
			tx := d.NewSession().begin()
			rows := append([]cust(nil), committed...)
			for ops := 1 + r.Int63n(4); ops > 0; ops-- {
				switch k := r.Int63n(10); {
				case k < 3: // insert
					c := cust{r.Int63n(tinyDistricts), next}
					next++
					(&CustomerRec{DID: uint32(c.dist), ID: uint32(c.c)}).Marshal(buf)
					rid, err := tx.insertRow(core.Customer, buf)
					if err != nil {
						t.Fatal(err)
					}
					note(rid)
					rows = append(rows, c)
				case k < 5 && len(rows) > tinyDistricts: // delete
					j := int(r.Int63n(int64(len(rows))))
					key := index.KeyWDC(0, rows[j].dist, rows[j].c)
					row, err := tx.fetch(core.Customer, key)
					if err != nil {
						t.Fatal(err)
					}
					if err := tx.deleteRow(core.Customer, row.rid, row.cur); err != nil {
						t.Fatal(err)
					}
					note(row.rid)
					rows = append(rows[:j], rows[j+1:]...)
				default: // update
					c := rows[r.Int63n(int64(len(rows)))]
					row, err := tx.fetch(core.Customer, index.KeyWDC(0, c.dist, c.c))
					if err != nil {
						t.Fatal(err)
					}
					var rec CustomerRec
					rec.Unmarshal(row.cur)
					rec.BalanceCents += 1 + r.Int63n(100)
					rec.Marshal(row.next)
					if err := tx.store(row); err != nil {
						t.Fatal(err)
					}
					note(row.rid)
				}
			}
			if r.Bernoulli(0.25) {
				if err := tx.rollbackWith(0); err != nil {
					t.Fatal(err)
				}
				continue
			}
			if err := tx.commit(); err != nil {
				t.Fatal(err)
			}
			committed = rows
		}
		mu.Lock()
		n := checked
		mu.Unlock()
		if n < 300 {
			t.Errorf("%v: only %d page writes checked: the run did not evict", cc, n)
		}

		// And the state the run committed is the state a crash leaves.
		powerLossAtDurable(t, d)
		if err := d.Recover(); err != nil {
			t.Fatal(err)
		}
		if got := d.heaps[core.Customer].Live(); got != int64(len(committed)) {
			t.Errorf("%v: %d customers after recovery, %d committed", cc, got, len(committed))
		}
		for _, c := range committed {
			if _, ok := d.idx[idxCustomer].get(index.KeyWDC(0, c.dist, c.c)); !ok {
				t.Errorf("%v: committed customer (0,%d,%d) lost", cc, c.dist, c.c)
			}
		}
	}
}
