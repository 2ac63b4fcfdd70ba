package db

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpccmodel/internal/rng"
)

// TestMVCCSIBenchStressor is the SIBench-style pessimal schedule for a
// snapshot store: writer goroutines keep incrementing warehouse and
// district YTD in lock-step (preserving the invariant w_ytd ==
// sum(d_ytd) transaction by transaction) while one long reader holds a
// single snapshot across the whole storm and repeatedly scans the lot.
//
// The gates: every scan under the long snapshot must see a consistent
// point-in-time cut (the invariant holds, and re-reads repeat exactly),
// and readers never abort — under mvcc a pure reader takes no locks and
// performs no first-committer-wins validation, so there is nothing that
// CAN abort it; the test makes that structural claim an executable one.
func TestMVCCSIBenchStressor(t *testing.T) {
	d := openTiny(t, CCMVCC)

	const (
		writers       = 4
		writesPer     = 150
		readerScans   = 40
		maxTriesPerTx = 1000
	)

	var wg sync.WaitGroup
	var conflictRetries atomic.Int64

	// Writers: snapshot-read the pair, then lock warehouse-then-district
	// and apply the increment. The warehouse row is write-hot for every
	// writer, so first-committer-wins losses are the common case; each
	// loss aborts the transaction and the writer retries with a fresh
	// snapshot — exactly the Runner's retry loop, inlined.
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			r := rng.New(uint64(1000 + id))
			for i := 0; i < writesPer; i++ {
				delta := uint64(1 + r.Int63n(50))
				dist := r.Int63n(tinyDistricts)
				committed := false
				for try := 0; try < maxTriesPerTx && !committed; try++ {
					tx := d.NewSession().begin()
					// Yield between snapshot and write so transactions
					// overlap even at GOMAXPROCS=1 — otherwise each txn
					// runs to commit unpreempted and FCW never fires. The
					// jittered backoff below is what breaks the resulting
					// lockstep: without it the same writer wins every round
					// and the rest livelock (the Runner's retry policy
					// jitters for exactly this reason).
					runtime.Gosched()
					backoff := func() {
						conflictRetries.Add(1)
						// Grows with the attempt count so a losing streak
						// drifts the writer out of phase with the winners.
						time.Sleep(time.Duration(r.Int63n(int64(try)*25+100)+1) * time.Microsecond)
					}
					if err := writeWarehouse(tx, func(wr *WarehouseRec) { wr.YTDCents += delta }); err != nil {
						_ = tx.fail(err)
						backoff()
						continue
					}
					if err := tinyWriteDistrict(tx, dist, func(dr *DistrictRec) { dr.YTDCents += delta }); err != nil {
						_ = tx.fail(err)
						backoff()
						continue
					}
					if err := tx.commit(); err != nil {
						t.Errorf("writer %d: commit failed: %v", id, err)
						return
					}
					committed = true
				}
				if !committed {
					t.Errorf("writer %d: transaction starved after %d tries", id, maxTriesPerTx)
					return
				}
			}
		}(w)
	}

	// The long reader: ONE snapshot for all scans. Each scan checks the
	// invariant at the snapshot and that nothing moved since the last scan.
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx := d.NewSession().begin()
		var firstW uint64
		var firstD [tinyDistricts]uint64
		for scan := 0; scan < readerScans; scan++ {
			w := readWarehouse(t, tx)
			var sum uint64
			for dist := int64(0); dist < tinyDistricts; dist++ {
				dr, live := tinyReadDistrict(t, tx, dist)
				if !live {
					t.Errorf("scan %d: district %d vanished mid-snapshot", scan, dist)
					return
				}
				sum += dr.YTDCents
				if scan == 0 {
					firstD[dist] = dr.YTDCents
				} else if dr.YTDCents != firstD[dist] {
					t.Errorf("scan %d: district %d moved under the snapshot: %d -> %d",
						scan, dist, firstD[dist], dr.YTDCents)
					return
				}
			}
			if w.YTDCents != sum {
				t.Errorf("scan %d: torn cut: w_ytd=%d, sum(d_ytd)=%d", scan, w.YTDCents, sum)
				return
			}
			if scan == 0 {
				firstW = w.YTDCents
			} else if w.YTDCents != firstW {
				t.Errorf("scan %d: warehouse moved under the snapshot: %d -> %d",
					scan, firstW, w.YTDCents)
				return
			}
		}
		// Reader commit cannot fail: no writes, no locks, no validation.
		if err := tx.commit(); err != nil {
			t.Errorf("read-only commit aborted: %v", err)
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiesced: the current state must satisfy the invariant exactly.
	fin := d.NewSession().begin()
	w := readWarehouse(t, fin)
	var sum uint64
	for dist := int64(0); dist < tinyDistricts; dist++ {
		dr, _ := tinyReadDistrict(t, fin, dist)
		sum += dr.YTDCents
	}
	if w.YTDCents != sum || w.YTDCents == 0 {
		t.Fatalf("final state: w_ytd=%d, sum(d_ytd)=%d (want equal, nonzero)", w.YTDCents, sum)
	}
	if err := fin.commit(); err != nil {
		t.Fatal(err)
	}
	t.Logf("writers committed %d txns through %d conflict retries (store conflicts: %d)",
		writers*writesPer, conflictRetries.Load(), d.WriteConflicts())
}

// TestMVCCReadersDontBlockWriters is the inverse direction of the SI
// promise on the same fixture: a transaction holding a WEEKS-long
// snapshot (well, a scan in progress) takes no locks, so a writer that
// would block behind a 2PL shared lock sails through under mvcc. Under
// 2PL the writer waits until the reader commits.
func TestMVCCReadersDontBlockWriters(t *testing.T) {
	run := func(t *testing.T, cc CCMode) (blocked bool) {
		d := openTiny(t, cc)

		reader := d.NewSession().begin()
		tinyReadCustomer(t, reader, 0) // S lock under 2PL, lock-free under mvcc
		writer := d.NewSession().begin()
		blocked, done := tryStep(d, func() error {
			return tinyWriteCustomer(writer, 0, func(c *CustomerRec) { c.BalanceCents = 7 })
		})
		if blocked {
			if err := reader.commit(); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if err := writer.commit(); err != nil {
			t.Fatal(err)
		}
		if !blocked {
			if err := reader.commit(); err != nil {
				t.Fatal(err)
			}
		}
		return blocked
	}
	t.Run("mvcc", func(t *testing.T) {
		if run(t, CCMVCC) {
			t.Fatal("writer blocked behind a snapshot reader")
		}
	})
	t.Run("2pl", func(t *testing.T) {
		if !run(t, CC2PL) {
			t.Fatal("2PL writer did not wait for the read lock")
		}
	})
}
