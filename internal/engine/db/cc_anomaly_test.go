package db

import (
	"errors"
	"testing"

	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/mvcc"
)

// This file is the snapshot-isolation anomaly battery: deterministic
// two-session schedules over the tiny fixture, each witnessing one
// textbook anomaly as impossible — or, for write skew, as the one
// anomaly SI deliberately allows. Everything here runs under
// `-short -race`.

// TestMVCCReadYourWritesAndSnapshotStability: a transaction sees its own
// uncommitted writes; a concurrent snapshot sees neither the uncommitted
// write (no dirty read) nor, after the writer commits, the committed one
// (snapshot stability). A fresh snapshot sees it.
func TestMVCCReadYourWritesAndSnapshotStability(t *testing.T) {
	d := openTiny(t, CCMVCC)

	reader := d.NewSession().begin()
	writer := d.NewSession().begin()
	if err := tinyWriteCustomer(writer, 0, func(c *CustomerRec) { c.BalanceCents += 100 }); err != nil {
		t.Fatal(err)
	}

	if rec, _ := tinyReadCustomer(t, writer, 0); rec.BalanceCents != 100 {
		t.Fatalf("writer reads its own write as %d, want 100", rec.BalanceCents)
	}
	if rec, _ := tinyReadCustomer(t, reader, 0); rec.BalanceCents != 0 {
		t.Fatalf("dirty read: concurrent snapshot sees uncommitted balance %d", rec.BalanceCents)
	}
	if err := writer.commit(); err != nil {
		t.Fatal(err)
	}
	if rec, _ := tinyReadCustomer(t, reader, 0); rec.BalanceCents != 0 {
		t.Fatalf("snapshot instability: reader sees post-snapshot commit (balance %d)", rec.BalanceCents)
	}
	if err := reader.commit(); err != nil {
		t.Fatal(err)
	}

	fresh := d.NewSession().begin()
	if rec, _ := tinyReadCustomer(t, fresh, 0); rec.BalanceCents != 100 {
		t.Fatalf("fresh snapshot sees balance %d, want 100", rec.BalanceCents)
	}
	if err := fresh.commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCLostUpdateImpossible: two transactions read the same balance
// under overlapping snapshots and both try read-modify-write. The second
// writer fails first-committer-wins validation — its increment cannot
// silently overwrite the first — and succeeds on retry with a fresh
// snapshot, so both increments land.
func TestMVCCLostUpdateImpossible(t *testing.T) {
	d := openTiny(t, CCMVCC)

	t1 := d.NewSession().begin()
	t2 := d.NewSession().begin()
	if rec, _ := tinyReadCustomer(t, t1, 0); rec.BalanceCents != 0 {
		t.Fatalf("t1 starting balance %d, want 0", rec.BalanceCents)
	}
	if rec, _ := tinyReadCustomer(t, t2, 0); rec.BalanceCents != 0 {
		t.Fatalf("t2 starting balance %d, want 0", rec.BalanceCents)
	}

	if err := tinyWriteCustomer(t1, 0, func(c *CustomerRec) { c.BalanceCents += 100 }); err != nil {
		t.Fatal(err)
	}
	if err := t1.commit(); err != nil {
		t.Fatal(err)
	}

	err := tinyWriteCustomer(t2, 0, func(c *CustomerRec) { c.BalanceCents += 100 })
	if err == nil {
		t.Fatal("stale write under an overlapping snapshot succeeded — update would be lost")
	}
	err = t2.fail(err)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale write failed with %v, want ErrWriteConflict", err)
	}
	if !errors.Is(err, ErrAborted) {
		t.Fatal("ErrWriteConflict must match ErrAborted so retry loops catch it")
	}
	if n := d.WriteConflicts(); n != 1 {
		t.Fatalf("WriteConflicts() = %d, want 1", n)
	}

	// The retry path: fresh snapshot, clean write.
	t2r := d.NewSession().begin()
	if err := tinyWriteCustomer(t2r, 0, func(c *CustomerRec) { c.BalanceCents += 100 }); err != nil {
		t.Fatal(err)
	}
	if err := t2r.commit(); err != nil {
		t.Fatal(err)
	}
	fin := d.NewSession().begin()
	if rec, _ := tinyReadCustomer(t, fin, 0); rec.BalanceCents != 200 {
		t.Fatalf("final balance %d, want 200 (both increments)", rec.BalanceCents)
	}
	if err := fin.commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCDirtyWriteImpossible: writes stay lock-based under mvcc, so a
// second writer cannot touch a row whose update is uncommitted — it
// blocks on the exclusive lock instead of interleaving undo images — and
// once the first writer commits, first-committer-wins refuses it.
func TestMVCCDirtyWriteImpossible(t *testing.T) {
	d := openTiny(t, CCMVCC)

	t1 := d.NewSession().begin()
	if err := tinyWriteCustomer(t1, 0, func(c *CustomerRec) { c.BalanceCents = 111 }); err != nil {
		t.Fatal(err)
	}

	t2 := d.NewSession().begin()
	blocked, done := tryStep(d, func() error {
		return tinyWriteCustomer(t2, 0, func(c *CustomerRec) { c.BalanceCents = 222 })
	})
	if !blocked {
		t.Fatalf("overlapping write ended (%v) without waiting for the uncommitted one", <-done)
	}
	if err := t1.commit(); err != nil {
		t.Fatal(err)
	}
	err := <-done
	if !errors.Is(err, mvcc.ErrConflict) {
		t.Fatalf("overlapping write failed with %v after the first writer committed, want mvcc.ErrConflict", err)
	}
	if err := t2.fail(err); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("refused writer surfaced %v, want ErrWriteConflict", err)
	}
	fin := d.NewSession().begin()
	if rec, _ := tinyReadCustomer(t, fin, 0); rec.BalanceCents != 111 {
		t.Fatalf("final balance %d, want 111 (t1's write only)", rec.BalanceCents)
	}
	if err := fin.commit(); err != nil {
		t.Fatal(err)
	}
}

// TestMVCCFirstCommitterWinsNextOID pins the FCW contract on the
// benchmark's hottest row: two overlapping snapshots both try to bump
// DISTRICT.next_o_id; the second committer aborts with ErrWriteConflict,
// so order ids are never double-allocated.
func TestMVCCFirstCommitterWinsNextOID(t *testing.T) {
	d := openTiny(t, CCMVCC)

	t1 := d.NewSession().begin()
	t2 := d.NewSession().begin()
	d1, _ := tinyReadDistrict(t, t1, 0)
	d2, _ := tinyReadDistrict(t, t2, 0)
	if d1.NextOID != d2.NextOID {
		t.Fatalf("overlapping snapshots disagree: %d vs %d", d1.NextOID, d2.NextOID)
	}

	if err := tinyWriteDistrict(t1, 0, func(r *DistrictRec) { r.NextOID++ }); err != nil {
		t.Fatal(err)
	}
	if err := t1.commit(); err != nil {
		t.Fatal(err)
	}

	err := tinyWriteDistrict(t2, 0, func(r *DistrictRec) { r.NextOID++ })
	if err == nil {
		t.Fatal("stale next_o_id bump succeeded — an order id would be allocated twice")
	}
	if err := t2.fail(err); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("stale bump failed with %v, want ErrWriteConflict", err)
	}

	fin := d.NewSession().begin()
	if rec, _ := tinyReadDistrict(t, fin, 0); rec.NextOID != d1.NextOID+1 {
		t.Fatalf("next_o_id = %d, want %d (exactly one bump)", rec.NextOID, d1.NextOID+1)
	}
	if err := fin.commit(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteSkew documents snapshot isolation's one allowed anomaly, and
// shows 2PL refusing the same schedule. The invariant "at least one of
// the two balances stays zero-positive" is checked by each transaction
// against the OTHER row: under SI both read pre-images, write disjoint
// rows, and commit — jointly violating what each checked alone. Under
// 2PL the shared read locks make the crossing writes collide, so the
// schedule cannot complete.
func TestWriteSkew(t *testing.T) {
	t.Run("mvcc-allows", func(t *testing.T) {
		d := openTiny(t, CCMVCC)
		seed := d.NewSession().begin()
		for _, dist := range []int64{0, 1} {
			if err := tinyWriteCustomer(seed, dist, func(c *CustomerRec) { c.BalanceCents = 50 }); err != nil {
				t.Fatal(err)
			}
		}
		if err := seed.commit(); err != nil {
			t.Fatal(err)
		}
		conflicts0 := d.WriteConflicts()

		t1 := d.NewSession().begin()
		t2 := d.NewSession().begin()
		// Each withdraws its whole row only if the other row still holds 50.
		if rec, _ := tinyReadCustomer(t, t1, 1); rec.BalanceCents != 50 {
			t.Fatalf("t1 guard read: %d, want 50", rec.BalanceCents)
		}
		if rec, _ := tinyReadCustomer(t, t2, 0); rec.BalanceCents != 50 {
			t.Fatalf("t2 guard read: %d, want 50", rec.BalanceCents)
		}
		if err := tinyWriteCustomer(t1, 0, func(c *CustomerRec) { c.BalanceCents = 0 }); err != nil {
			t.Fatal(err)
		}
		if err := tinyWriteCustomer(t2, 1, func(c *CustomerRec) { c.BalanceCents = 0 }); err != nil {
			t.Fatal(err)
		}
		if err := t1.commit(); err != nil {
			t.Fatal(err)
		}
		if err := t2.commit(); err != nil {
			t.Fatal(err)
		}
		if n := d.WriteConflicts() - conflicts0; n != 0 {
			t.Fatalf("disjoint write sets raised %d conflicts, want 0", n)
		}
		fin := d.NewSession().begin()
		r0, _ := tinyReadCustomer(t, fin, 0)
		r1, _ := tinyReadCustomer(t, fin, 1)
		if r0.BalanceCents != 0 || r1.BalanceCents != 0 {
			t.Fatalf("balances (%d,%d): schedule did not produce the skew", r0.BalanceCents, r1.BalanceCents)
		}
		if err := fin.commit(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ssi-forbids", func(t *testing.T) {
		d := openTiny(t, CCSSI)
		seed := d.NewSession().begin()
		for _, dist := range []int64{0, 1} {
			if err := tinyWriteCustomer(seed, dist, func(c *CustomerRec) { c.BalanceCents = 50 }); err != nil {
				t.Fatal(err)
			}
		}
		if err := seed.commit(); err != nil {
			t.Fatal(err)
		}
		conflicts0 := d.WriteConflicts()

		t1 := d.NewSession().begin()
		t2 := d.NewSession().begin()
		// Same schedule as mvcc-allows: guard reads cross the writes.
		if rec, _ := tinyReadCustomer(t, t1, 1); rec.BalanceCents != 50 {
			t.Fatalf("t1 guard read: %d, want 50", rec.BalanceCents)
		}
		if rec, _ := tinyReadCustomer(t, t2, 0); rec.BalanceCents != 50 {
			t.Fatalf("t2 guard read: %d, want 50", rec.BalanceCents)
		}
		// t1's write overwrites t2's SIREAD mark: edge t2 → t1 installs
		// cleanly (neither side is a pivot yet).
		if err := tinyWriteCustomer(t1, 0, func(c *CustomerRec) { c.BalanceCents = 0 }); err != nil {
			t.Fatal(err)
		}
		// t2's crossing write would give t2 both flags — exactly one
		// victim, and it is the acting side.
		err := tinyWriteCustomer(t2, 1, func(c *CustomerRec) { c.BalanceCents = 0 })
		if err == nil {
			t.Fatal("crossing write completed under ssi — write skew admitted")
		}
		if err := t2.fail(err); !errors.Is(err, ErrSSIAbort) {
			t.Fatalf("crossing write failed with %v, want ErrSSIAbort", err)
		} else if !errors.Is(err, ErrAborted) {
			t.Fatal("ErrSSIAbort must match ErrAborted so retry loops catch it")
		}
		// The survivor commits: its lone in-flag is not a dangerous
		// structure.
		if err := t1.commit(); err != nil {
			t.Fatalf("survivor commit: %v", err)
		}
		if n := d.SSIAborts(); n != 1 {
			t.Fatalf("SSIAborts() = %d, want exactly 1 (one victim)", n)
		}
		if n := d.WriteConflicts() - conflicts0; n != 0 {
			t.Fatalf("ssi abort misclassified: %d write conflicts, want 0", n)
		}

		// The retry sees t1's withdrawal and its guard refuses — the
		// serializable outcome.
		t2r := d.NewSession().begin()
		if rec, _ := tinyReadCustomer(t, t2r, 0); rec.BalanceCents == 50 {
			t.Fatal("retry still sees pre-skew guard value")
		}
		if err := t2r.commit(); err != nil {
			t.Fatal(err)
		}
		fin := d.NewSession().begin()
		r0, _ := tinyReadCustomer(t, fin, 0)
		r1, _ := tinyReadCustomer(t, fin, 1)
		if r0.BalanceCents != 0 || r1.BalanceCents != 50 {
			t.Fatalf("balances (%d,%d), want (0,50): only the survivor's withdrawal lands", r0.BalanceCents, r1.BalanceCents)
		}
		if err := fin.commit(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("2pl-refuses", func(t *testing.T) {
		d := openTiny(t, CC2PL)

		t1 := d.NewSession().begin()
		t2 := d.NewSession().begin()
		// The guard reads take shared locks under 2PL...
		tinyReadCustomer(t, t1, 1)
		tinyReadCustomer(t, t2, 0)
		// ...so t1's write of row 0 waits for t2's read lock...
		blocked, done := tryStep(d, func() error {
			return tinyWriteCustomer(t1, 0, func(c *CustomerRec) { c.BalanceCents = 0 })
		})
		if !blocked {
			t.Fatalf("crossing write ended (%v) without waiting for the read lock", <-done)
		}
		// ...and t2's crossing write closes the cycle: it is the victim.
		err := tinyWriteCustomer(t2, 1, func(c *CustomerRec) { c.BalanceCents = 0 })
		if !errors.Is(err, lock.ErrDeadlock) {
			t.Fatalf("crossing write failed with %v, want lock.ErrDeadlock", err)
		}
		if err := t2.fail(err); !errors.Is(err, ErrAborted) {
			t.Fatalf("2PL victim surfaced %v, want ErrAborted", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("t1's write after the victim rolled back: %v", err)
		}
		if err := t1.commit(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestBranchCommitSSIAbortIsRetriable: a branch doomed as an ssi pivot by
// another transaction's edge fails validation at its commit, the global
// decision of a home branch. That failure must be an ErrSSIAbort, which
// matches ErrAborted, so the coordinator aborts the transaction and the
// terminal retries it; a bare mvcc error failed the whole run.
func TestBranchCommitSSIAbortIsRetriable(t *testing.T) {
	d := openTiny(t, CCSSI)
	seed := d.NewSession().begin()
	for _, dist := range []int64{0, 1} {
		if err := tinyWriteCustomer(seed, dist, func(c *CustomerRec) { c.BalanceCents = 50 }); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.commit(); err != nil {
		t.Fatal(err)
	}
	pivot, writer, reader := d.NewSession().begin(), d.NewSession().begin(), d.NewSession().begin()
	tinyReadCustomer(t, pivot, 0)
	// The writer overwrites what the pivot read: pivot →rw→ writer.
	if err := tinyWriteCustomer(writer, 0, func(c *CustomerRec) { c.BalanceCents = 1 }); err != nil {
		t.Fatal(err)
	}
	if err := tinyWriteCustomer(pivot, 1, func(c *CustomerRec) { c.BalanceCents = 2 }); err != nil {
		t.Fatal(err)
	}
	// The reader skips the pivot's uncommitted image: reader →rw→ pivot,
	// which dooms the pivot.
	tinyReadCustomer(t, reader, 1)
	err := pivot.commitWith(1)
	if !errors.Is(err, ErrSSIAbort) || !errors.Is(err, ErrAborted) {
		t.Fatalf("doomed branch commit: %v, want ErrSSIAbort matching ErrAborted", err)
	}
	if err := pivot.rollbackWith(1); err != nil {
		t.Fatal(err)
	}
	for _, tx := range []*txn{writer, reader} {
		if err := tx.commit(); err != nil {
			t.Fatal(err)
		}
	}
}
