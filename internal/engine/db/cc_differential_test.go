package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
)

// The differential gates: 2PL is the oracle for mvcc AND ssi. Any
// committed schedule the modes all execute must land on byte-identical
// state — snapshot isolation changes what concurrent transactions SEE,
// and SSI changes which transactions may COMMIT, never what committed
// serial history MEANS. Single-threaded schedules additionally pin
// SSI's false-positive floor: with no concurrency there are no
// rw-antidependency edges, so zero ssi aborts may occur.

// TestCCDifferentialTiny replays one deterministic, single-threaded
// schedule — updates, a mid-schedule rollback, a first-committer loser,
// read-only transactions — over the tiny fixture under both modes and
// requires identical state hashes. Fast enough for `-short -race`.
func TestCCDifferentialTiny(t *testing.T) {
	hashes := map[CCMode]uint64{}
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		d := openTiny(t, cc)

		// Interleaved balance/YTD churn across every fixture district.
		for round := int64(0); round < 5; round++ {
			for dist := int64(0); dist < tinyDistricts; dist++ {
				tx := d.NewSession().begin()
				amt := uint64(100*round + 10*dist + 1)
				if err := writeWarehouse(tx, func(w *WarehouseRec) { w.YTDCents += amt }); err != nil {
					t.Fatal(err)
				}
				if err := tinyWriteDistrict(tx, dist, func(r *DistrictRec) {
					r.YTDCents += amt
					r.NextOID++
				}); err != nil {
					t.Fatal(err)
				}
				if err := tinyWriteCustomer(tx, dist, func(c *CustomerRec) {
					c.BalanceCents -= int64(amt)
					c.PaymentCount++
				}); err != nil {
					t.Fatal(err)
				}
				// Every third transaction aborts: rollback must restore the
				// identical pre-images under both modes.
				if (round+dist)%3 == 2 {
					if err := tx.rollbackWith(0); err != nil {
						t.Fatal(err)
					}
					continue
				}
				if err := tx.commit(); err != nil {
					t.Fatal(err)
				}
			}
			// A read-only transaction between rounds (exercises the mvcc
			// WAL-skip commit path; a plain locked read under 2PL).
			ro := d.NewSession().begin()
			tinyReadCustomer(t, ro, round%tinyDistricts)
			if err := ro.commit(); err != nil {
				t.Fatal(err)
			}
		}
		if cc == CCSSI {
			if n := d.SSIAborts(); n != 0 {
				t.Fatalf("sequential ssi schedule hit %d ssi aborts, want 0", n)
			}
		}
		hashes[cc] = stateHash(t, d)
	}
	for _, cc := range []CCMode{CCMVCC, CCSSI} {
		if hashes[CC2PL] != hashes[cc] {
			t.Fatalf("committed state diverges: 2pl=%016x %s=%016x", hashes[CC2PL], cc, hashes[cc])
		}
	}
}

// TestCCDifferentialWorkload runs the full seeded TPC-C workload — same
// seed, same mix, one worker so the schedule is identical — under 2PL
// and mvcc, and requires byte-identical committed state plus C1-C4
// consistency in both. One worker means no lock conflicts and no
// first-committer losses, so zero retries may perturb the input stream;
// the test pins that assumption too.
func TestCCDifferentialWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	hashes := map[CCMode]uint64{}
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		d, err := Open(Config{
			Warehouses: 1, PageSize: 4096, BufferPages: 32768, CC: cc,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Load(11); err != nil {
			t.Fatal(err)
		}
		st, err := RunConcurrentPolicy(d, 99, tpcc.DefaultMix(), 1200, 1)
		if err != nil {
			t.Fatal(err)
		}
		if st.Retries != 0 || st.Sheds != 0 {
			t.Fatalf("%s: single-worker run retried (%d) or shed (%d) — schedules diverge",
				cc, st.Retries, st.Sheds)
		}
		if err := d.CheckConsistency(); err != nil {
			t.Fatalf("%s: %v", cc, err)
		}
		if cc != CC2PL {
			if n := d.WriteConflicts(); n != 0 {
				t.Fatalf("single-worker %s run hit %d write conflicts", cc, n)
			}
		}
		if cc == CCSSI {
			// TPC-C is serializable under plain SI (Fekete et al., TODS
			// 2005) and a single worker creates no concurrency at all, so
			// any ssi abort here would be a detector bug, not a false
			// positive.
			if n := d.SSIAborts(); n != 0 {
				t.Fatalf("single-worker ssi run hit %d ssi aborts", n)
			}
		}
		hashes[cc] = stateHash(t, d)
	}
	for _, cc := range []CCMode{CCMVCC, CCSSI} {
		if hashes[CC2PL] != hashes[cc] {
			t.Fatalf("committed state diverges: 2pl=%016x %s=%016x", hashes[CC2PL], cc, hashes[cc])
		}
	}
}

// TestCCMVCCConcurrentConsistency drives the real concurrent workload —
// 4 workers, conflicts and retries live — under mvcc and checks the
// benchmark's C1-C4 invariants plus the per-type stat plumbing.
func TestCCMVCCConcurrentConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	d, err := Open(Config{
		Warehouses: 1, PageSize: 4096, BufferPages: 32768, CC: CCMVCC,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(7); err != nil {
		t.Fatal(err)
	}
	st, err := RunConcurrentPolicy(d, 13, tpcc.DefaultMix(), 800, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var acked, aborts, conflicts int64
	for _, typ := range core.TxnTypes() {
		ts := st.PerType[typ]
		acked += ts.Acked
		aborts += ts.Aborts
		conflicts += ts.Conflicts
		if ts.Conflicts > ts.Aborts {
			t.Fatalf("%s: conflicts (%d) exceed aborts (%d)", typ, ts.Conflicts, ts.Aborts)
		}
	}
	if acked != st.Acknowledged() {
		t.Fatalf("per-type acked sum %d != total %d", acked, st.Acknowledged())
	}
	// Read-only transactions must never conflict: FCW only fires on writes.
	for _, typ := range []core.TxnType{core.TxnOrderStatus, core.TxnStockLevel} {
		if n := st.PerType[typ].Conflicts; n != 0 {
			t.Fatalf("read-only %s hit %d write conflicts", typ, n)
		}
	}
	t.Logf("mvcc 4-worker: acked=%d aborts=%d conflicts=%d (store: %d) chains=%d",
		acked, aborts, conflicts, d.WriteConflicts(), d.VersionChains())
}

// TestCCSSIConcurrentConsistency is the same concurrent gate under ssi:
// C1-C4 must hold with dangerous-structure aborts and retries live, and
// the ssi-abort accounting must reconcile — every store-level abort
// surfaces as exactly one ErrSSIAbort in some worker's retry loop.
// Because TPC-C is serializable under plain SI, every one of those
// aborts is by definition a false positive; this test tolerates them
// (the retry loop absorbs them) but pins where they can occur.
func TestCCSSIConcurrentConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	d, err := Open(Config{
		Warehouses: 1, PageSize: 4096, BufferPages: 32768, CC: CCSSI,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(7); err != nil {
		t.Fatal(err)
	}
	st, err := RunConcurrentPolicy(d, 13, tpcc.DefaultMix(), 800, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	var ssiSum int64
	for _, typ := range core.TxnTypes() {
		ts := st.PerType[typ]
		ssiSum += ts.SSIAborts
		if ts.SSIAborts > ts.Aborts {
			t.Fatalf("%s: ssi aborts (%d) exceed aborts (%d)", typ, ts.SSIAborts, ts.Aborts)
		}
	}
	if n := d.SSIAborts(); ssiSum != n {
		t.Fatalf("per-type ssi aborts sum %d != store count %d", ssiSum, n)
	}
	// A read-only transaction can acquire out-edges but never an in-edge
	// (nothing it wrote can be read), so it can never become a pivot —
	// but it CAN still draw an ssi abort: when its read lands under a
	// version whose creator is a committed pivot, aborting the pivot is
	// no longer possible and the reader must yield instead. So read-only
	// ssi aborts are tolerated here; write conflicts are not — a
	// transaction that writes nothing has nothing to conflict on.
	for _, typ := range []core.TxnType{core.TxnOrderStatus, core.TxnStockLevel} {
		if n := st.PerType[typ].Conflicts; n != 0 {
			t.Fatalf("read-only %s hit %d write conflicts", typ, n)
		}
	}
	t.Logf("ssi 4-worker: acked=%d ssi-aborts=%d (all false positives) conflicts=%d chains=%d",
		st.Acknowledged(), ssiSum, d.WriteConflicts(), d.VersionChains())
}
