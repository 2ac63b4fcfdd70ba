package db

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// SmallBank (Cahill's thesis, appendix B; the OLTPBench port of it) is
// the standard snapshot-isolation stressor: five tiny procedures over
// (checking, savings) account pairs whose guard reads cross their
// writes. It rides here as the second SI/SSI witness beside the TPC-C
// write-skew schedule — a workload where, unlike TPC-C itself, SI
// genuinely admits a non-serializable state.
//
// Mapping onto the tiny fixture: account a = district a; checking is
// customer row (0,a,0) — the row openTiny already loads — and savings is
// customer row (0,a,1), seeded by openSmallBank. Balances live in
// CustomerRec.BalanceCents.
//
// One deliberate deviation: the thesis Amalgamate zeroes BOTH source
// balances, which overlaps WriteCheck's write set on chk(a) and lets
// plain first-committer-wins mask the anomaly as an ordinary write
// conflict. This port's Amalgamate moves the savings balance only,
// guarded on the account not being overdrawn (sav+chk > 0) — the guard
// preserves the crossing read of chk(a), keeping the WriteCheck /
// Amalgamate pair a true write-skew witness with disjoint write sets.

const (
	sbChecking = 0
	sbSavings  = 1
)

// openSmallBank extends the tiny fixture with a savings row per
// district.
func openSmallBank(t *testing.T, cc CCMode) *DB {
	t.Helper()
	d := openTiny(t, cc)
	tx := d.NewSession().begin()
	for dist := int64(0); dist < tinyDistricts; dist++ {
		fixtureRow(t, tx, core.Customer, &CustomerRec{ID: sbSavings, DID: uint32(dist), CreditLimit: 50000})
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	return d
}

// sbBalanceOf snap-reads one balance of account acct.
func sbBalanceOf(tx *txn, acct, which int64) (int64, error) {
	key := index.KeyWDC(0, acct, which)
	rid, ok := tx.d.idx[idxCustomer].get(key)
	if !ok {
		return 0, fmt.Errorf("smallbank: account (%d,%d) missing", acct, which)
	}
	buf := make([]byte, tpcc.TupleLen[core.Customer])
	live, err := tx.snapRead(core.Customer, key, storage.UnpackRID(rid), buf)
	if err != nil || !live {
		return 0, err
	}
	var rec CustomerRec
	rec.Unmarshal(buf)
	return rec.BalanceCents, nil
}

// sbMut locks and read-modify-writes one balance.
func sbMut(tx *txn, acct, which int64, mut func(*int64)) error {
	r, err := tx.fetch(core.Customer, index.KeyWDC(0, acct, which))
	if err != nil {
		return err
	}
	var rec CustomerRec
	rec.Unmarshal(r.cur)
	mut(&rec.BalanceCents)
	rec.Marshal(r.next)
	return tx.store(r)
}

// The procedures. Each returns the signed delta it applied to the total
// money supply (zero for pure moves and refusals), so the stress test
// can check conservation against committed deltas only.

func sbDepositChecking(tx *txn, a, v int64) (int64, error) {
	return v, sbMut(tx, a, sbChecking, func(b *int64) { *b += v })
}

func sbTransactSavings(tx *txn, a, v int64) (int64, error) {
	applied := int64(0)
	err := sbMut(tx, a, sbSavings, func(b *int64) {
		if *b+v >= 0 {
			*b += v
			applied = v
		}
	})
	return applied, err
}

func sbWriteCheck(tx *txn, a, v int64) (int64, error) {
	sav, err := sbBalanceOf(tx, a, sbSavings)
	if err != nil {
		return 0, err
	}
	chk, err := sbBalanceOf(tx, a, sbChecking)
	if err != nil {
		return 0, err
	}
	delta := -v
	if sav+chk < v {
		delta = -(v + 1) // overdraft penalty
	}
	return delta, sbMut(tx, a, sbChecking, func(b *int64) { *b += delta })
}

func sbAmalgamate(tx *txn, a, b int64) error {
	sav, err := sbBalanceOf(tx, a, sbSavings)
	if err != nil {
		return err
	}
	chk, err := sbBalanceOf(tx, a, sbChecking)
	if err != nil {
		return err
	}
	if sav+chk <= 0 || sav == 0 {
		return nil // overdrawn or nothing to move: leave untouched
	}
	if err := sbMut(tx, a, sbSavings, func(bal *int64) { *bal = 0 }); err != nil {
		return err
	}
	return sbMut(tx, b, sbChecking, func(bal *int64) { *bal += sav })
}

// sbSeed commits sav(a)=100 with every other balance zero.
func sbSeed(t *testing.T, d *DB) {
	t.Helper()
	tx := d.NewSession().begin()
	if err := sbMut(tx, 0, sbSavings, func(b *int64) { *b = 100 }); err != nil {
		t.Fatal(err)
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
}

// sbState reads (sav(a), chk(a), chk(b)) in a fresh snapshot.
func sbState(t *testing.T, d *DB) (sav, chkA, chkB int64) {
	t.Helper()
	fin := d.NewSession().begin()
	var err error
	if sav, err = sbBalanceOf(fin, 0, sbSavings); err != nil {
		t.Fatal(err)
	}
	if chkA, err = sbBalanceOf(fin, 0, sbChecking); err != nil {
		t.Fatal(err)
	}
	if chkB, err = sbBalanceOf(fin, 1, sbChecking); err != nil {
		t.Fatal(err)
	}
	if err := fin.commit(); err != nil {
		t.Fatal(err)
	}
	return sav, chkA, chkB
}

// TestSmallBankSkew runs the WriteCheck(a,100) / Amalgamate(a,b) pair
// concurrently from sav(a)=100, chk(a)=0, chk(b)=0. The serial outcomes
// are (100,-100,0) — WriteCheck first, Amalgamate refuses the overdrawn
// account — and (0,-101,100) — Amalgamate first, WriteCheck pays the
// penalty. SI commits both against their stale guards and produces
// (0,-100,100): savings moved AND no penalty, matching neither order.
func TestSmallBankSkew(t *testing.T) {
	t.Run("mvcc-allows", func(t *testing.T) {
		d := openSmallBank(t, CCMVCC)
		sbSeed(t, d)

		t1 := d.NewSession().begin()
		t2 := d.NewSession().begin()
		delta, err := sbWriteCheck(t1, 0, 100)
		if err != nil {
			t.Fatal(err)
		}
		if delta != -100 {
			t.Fatalf("WriteCheck applied %d, want -100 (no penalty under its snapshot)", delta)
		}
		if err := sbAmalgamate(t2, 0, 1); err != nil {
			t.Fatal(err)
		}
		if err := t1.commit(); err != nil {
			t.Fatal(err)
		}
		if err := t2.commit(); err != nil {
			t.Fatal(err)
		}

		sav, chkA, chkB := sbState(t, d)
		if sav != 0 || chkA != -100 || chkB != 100 {
			t.Fatalf("state (%d,%d,%d): schedule did not produce the skew, want (0,-100,100)", sav, chkA, chkB)
		}
	})

	t.Run("ssi-forbids", func(t *testing.T) {
		d := openSmallBank(t, CCSSI)
		sbSeed(t, d)
		aborts0 := d.SSIAborts()

		t1 := d.NewSession().begin()
		t2 := d.NewSession().begin()
		// Guard reads first, so the writes cross live SIREAD marks.
		if _, err := sbBalanceOf(t1, 0, sbSavings); err != nil {
			t.Fatal(err)
		}
		if _, err := sbBalanceOf(t1, 0, sbChecking); err != nil {
			t.Fatal(err)
		}
		if _, err := sbBalanceOf(t2, 0, sbSavings); err != nil {
			t.Fatal(err)
		}
		if _, err := sbBalanceOf(t2, 0, sbChecking); err != nil {
			t.Fatal(err)
		}
		// t1 = WriteCheck's write leg: chk(a) -= 100, no penalty.
		if err := sbMut(t1, 0, sbChecking, func(b *int64) { *b -= 100 }); err != nil {
			t.Fatal(err)
		}
		// t2 = Amalgamate's first write leg crosses t1's mark: pivot.
		err := sbMut(t2, 0, sbSavings, func(b *int64) { *b = 0 })
		if err == nil {
			t.Fatal("crossing Amalgamate write completed under ssi")
		}
		if err := t2.fail(err); !errors.Is(err, ErrSSIAbort) {
			t.Fatalf("crossing write failed with %v, want ErrSSIAbort", err)
		}
		if err := t1.commit(); err != nil {
			t.Fatalf("survivor WriteCheck commit: %v", err)
		}
		if n := d.SSIAborts() - aborts0; n != 1 {
			t.Fatalf("SSIAborts delta %d, want exactly 1", n)
		}

		// Clean retry: the fresh snapshot sees the overdrawn account and
		// Amalgamate refuses — the WriteCheck-first serial outcome.
		t2r := d.NewSession().begin()
		if err := sbAmalgamate(t2r, 0, 1); err != nil {
			t.Fatalf("retry: %v", err)
		}
		if err := t2r.commit(); err != nil {
			t.Fatalf("retry commit: %v", err)
		}
		sav, chkA, chkB := sbState(t, d)
		if sav != 100 || chkA != -100 || chkB != 0 {
			t.Fatalf("state (%d,%d,%d), want serial outcome (100,-100,0)", sav, chkA, chkB)
		}
	})

	t.Run("2pl-refuses", func(t *testing.T) {
		d := openSmallBank(t, CC2PL)
		sbSeed(t, d)

		t1 := d.NewSession().begin()
		t2 := d.NewSession().begin()
		// Both guard reads take shared locks...
		if _, err := sbBalanceOf(t1, 0, sbSavings); err != nil {
			t.Fatal(err)
		}
		if _, err := sbBalanceOf(t2, 0, sbChecking); err != nil {
			t.Fatal(err)
		}
		// ...so WriteCheck's write of chk(a) waits for t2's read lock...
		blocked, done := tryStep(d, func() error {
			_, err := sbWriteCheck(t1, 0, 100)
			return err
		})
		if !blocked {
			t.Fatalf("crossing write ended (%v) without waiting for the read lock", <-done)
		}
		// ...and Amalgamate's write of sav(a) closes the cycle: t2 is the
		// victim.
		err := sbAmalgamate(t2, 0, 1)
		if !errors.Is(err, lock.ErrDeadlock) {
			t.Fatalf("crossing write failed with %v, want lock.ErrDeadlock", err)
		}
		if err := t2.fail(err); !errors.Is(err, ErrAborted) {
			t.Fatalf("2PL victim surfaced %v, want ErrAborted", err)
		}
		if err := <-done; err != nil {
			t.Fatalf("WriteCheck after the victim rolled back: %v", err)
		}
		if err := t1.commit(); err != nil {
			t.Fatal(err)
		}
		sav, chkA, chkB := sbState(t, d)
		if sav != 100 || chkA != -100 || chkB != 0 {
			t.Fatalf("state (%d,%d,%d), want WriteCheck alone (100,-100,0)", sav, chkA, chkB)
		}
	})
}

// TestSmallBankSSIConservation hammers the full procedure mix under
// -cc=ssi with an abort-and-retry loop and checks money conservation:
// the final total must equal the seed plus exactly the deltas of
// COMMITTED procedures. A lost update, write skew admitted, or a
// half-applied Amalgamate all break the equation.
func TestSmallBankSSIConservation(t *testing.T) {
	const (
		workers  = 4
		opsEach  = 150
		accounts = 4
		maxTries = 1000
	)
	d := openSmallBank(t, CCSSI)

	seed := d.NewSession().begin()
	for a := int64(0); a < accounts; a++ {
		if err := sbMut(seed, a, sbSavings, func(b *int64) { *b = 1000 }); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.commit(); err != nil {
		t.Fatal(err)
	}
	initial := int64(accounts * 1000)

	var committedDelta atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := uint64(w)*0x9e3779b97f4a7c15 + 1
			next := func(n uint64) uint64 {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return rng % n
			}
			for op := 0; op < opsEach; op++ {
				kind := next(4)
				a := int64(next(accounts))
				b := (a + 1 + int64(next(accounts-1))) % accounts
				v := int64(next(50)) + 1
				for try := 0; ; try++ {
					if try == maxTries {
						t.Errorf("worker %d op %d: no commit after %d tries", w, op, maxTries)
						return
					}
					tx := d.NewSession().begin()
					var delta int64
					var err error
					switch kind {
					case 0:
						delta, err = sbDepositChecking(tx, a, v)
					case 1:
						delta, err = sbTransactSavings(tx, a, -v)
					case 2:
						delta, err = sbWriteCheck(tx, a, v)
					case 3:
						err = sbAmalgamate(tx, a, b)
					}
					// A failed commit has rolled back already; failing it
					// again would undo twice, the second time without locks.
					if err == nil {
						err = tx.commit()
					} else {
						err = tx.fail(err)
					}
					if err == nil {
						committedDelta.Add(delta)
						break
					}
					if !errors.Is(err, ErrAborted) {
						t.Errorf("worker %d: non-retryable %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	var total int64
	fin := d.NewSession().begin()
	for a := int64(0); a < accounts; a++ {
		for _, which := range []int64{sbChecking, sbSavings} {
			bal, err := sbBalanceOf(fin, a, which)
			if err != nil {
				t.Fatal(err)
			}
			total += bal
		}
	}
	if err := fin.commit(); err != nil {
		t.Fatal(err)
	}
	want := initial + committedDelta.Load()
	if total != want {
		t.Fatalf("money not conserved: total %d, want %d (seed %d + committed deltas %d)",
			total, want, initial, committedDelta.Load())
	}
}
