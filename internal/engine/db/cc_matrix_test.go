package db

import (
	"errors"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// The anomaly matrix pins every (anomaly, cc-mode) pair in one table:
// each probe runs the same hand-interleaved schedule under 2pl, mvcc and
// ssi, tolerating whichever refusal the mode throws (a lock wait, FCW
// conflict, ssi abort), and reports only whether the anomalous OUTCOME
// was admitted. A step that blocks on a lock is refused; the probe then
// ends the wait the natural way, by committing the holder. The matrix is
// the contract the CC modes are sold on: write skew is the single cell
// where the modes differ.
//
//	             2pl    mvcc   ssi
//	dirty-read    –      –      –
//	dirty-write   –      –      –
//	lost-update   –      –      –
//	write-skew    –    ALLOWED  –

// matrixReadCustomer is tinyReadCustomer with the engine error surfaced
// instead of t.Fatal, so that it can run as a tryStep: under 2PL a read of
// an uncommitted-written row waits for the shared lock, a refusal, not a
// test bug.
func matrixReadCustomer(tx *txn, dist int64) (CustomerRec, error) {
	key := custKey(dist)
	rid, _ := tx.d.customerIdx.get(key)
	buf := make([]byte, tpcc.TupleLen[core.Customer])
	live, err := tx.snapRead(core.Customer, key, storage.UnpackRID(rid), buf)
	var rec CustomerRec
	if err == nil && live {
		rec.Unmarshal(buf)
	}
	return rec, err
}

// probeDirtyRead: can a concurrent transaction observe an uncommitted
// write?
func probeDirtyRead(t *testing.T, d *DB) bool {
	w := d.NewSession().begin()
	if err := tinyWriteCustomer(w, 0, func(c *CustomerRec) { c.BalanceCents = 111 }); err != nil {
		t.Fatal(err)
	}
	r := d.NewSession().begin()
	var rec CustomerRec
	blocked, done := tryStep(d, func() (err error) {
		rec, err = matrixReadCustomer(r, 0)
		return err
	})
	if blocked {
		commitOrFatal(t, w, "lone writer")
	}
	err := <-done
	observed := !blocked && err == nil && rec.BalanceCents == 111
	if err != nil {
		r.fail(err)
	} else {
		r.commit() // a failed commit has rolled back already
	}
	if !blocked {
		commitOrFatal(t, w, "lone writer")
	}
	return observed
}

// commitOrFatal commits tx, which must commit.
func commitOrFatal(t *testing.T, tx *txn, who string) {
	t.Helper()
	if err := tx.commit(); err != nil {
		t.Fatalf("%s must commit: %v", who, err)
	}
}

// probeDirtyWrite: can a second writer replace a row whose update is
// still uncommitted?
func probeDirtyWrite(t *testing.T, d *DB) bool {
	t1 := d.NewSession().begin()
	if err := tinyWriteCustomer(t1, 0, func(c *CustomerRec) { c.BalanceCents = 111 }); err != nil {
		t.Fatal(err)
	}
	t2 := d.NewSession().begin()
	blocked, done := tryStep(d, func() error {
		return tinyWriteCustomer(t2, 0, func(c *CustomerRec) { c.BalanceCents = 222 })
	})
	if blocked {
		commitOrFatal(t, t1, "first writer")
	}
	err := <-done
	observed := !blocked && err == nil
	if err != nil {
		t2.fail(err)
	} else {
		t2.commit() // a failed commit has rolled back already
	}
	if !blocked {
		commitOrFatal(t, t1, "first writer")
	}
	return observed
}

// probeLostUpdate: two read-modify-write increments under overlapping
// snapshots — admitted when both commit but only one increment lands.
func probeLostUpdate(t *testing.T, d *DB) bool {
	t1 := d.NewSession().begin()
	t2 := d.NewSession().begin()
	commits := 0
	step := func(tx *txn) {
		if _, err := matrixReadCustomer(tx, 0); err != nil {
			tx.fail(err)
			return
		}
		if err := tinyWriteCustomer(tx, 0, func(c *CustomerRec) { c.BalanceCents += 100 }); err != nil {
			tx.fail(err)
			return
		}
		if err := tx.commit(); err != nil {
			tx.fail(err)
			return
		}
		commits++
	}
	step(t1)
	step(t2)
	fin := d.NewSession().begin()
	rec, err := matrixReadCustomer(fin, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := fin.commit(); err != nil {
		t.Fatal(err)
	}
	return commits == 2 && rec.BalanceCents == 100
}

// errGuardRefused is a write-skew step's guard declining to withdraw: the
// row it guards was already drained.
var errGuardRefused = errors.New("guard refused the withdrawal")

// probeWriteSkew: the TestWriteSkew schedule — crossing guard reads,
// disjoint withdrawals, each only while its guard row still holds 50.
// Admitted when both rows end up drained.
func probeWriteSkew(t *testing.T, d *DB) bool {
	seed := d.NewSession().begin()
	for _, dist := range []int64{0, 1} {
		if err := tinyWriteCustomer(seed, dist, func(c *CustomerRec) { c.BalanceCents = 50 }); err != nil {
			t.Fatal(err)
		}
	}
	if err := seed.commit(); err != nil {
		t.Fatal(err)
	}

	t1 := d.NewSession().begin()
	t2 := d.NewSession().begin()
	step := func(tx *txn, guard, victim int64) error {
		rec, err := matrixReadCustomer(tx, guard)
		if err == nil && rec.BalanceCents != 50 {
			err = errGuardRefused
		}
		if err != nil {
			return err
		}
		return tinyWriteCustomer(tx, victim, func(c *CustomerRec) { c.BalanceCents = 0 })
	}
	// A failed commit has rolled back already.
	end := func(tx *txn, err error) bool {
		if err != nil {
			tx.fail(err)
			return false
		}
		return tx.commit() == nil
	}
	// t1's step cannot block: t2 holds nothing yet. Under 2PL t2's guard
	// read waits for t1's write, and reads it once t1 commits.
	err1 := step(t1, 1, 0)
	blocked, done := tryStep(d, func() error { return step(t2, 0, 1) })
	var ok1 bool
	if blocked {
		ok1 = end(t1, err1)
	}
	err2 := <-done
	if !blocked {
		ok1 = end(t1, err1)
	}
	ok2 := end(t2, err2)

	fin := d.NewSession().begin()
	r0, err := matrixReadCustomer(fin, 0)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := matrixReadCustomer(fin, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := fin.commit(); err != nil {
		t.Fatal(err)
	}
	return ok1 && ok2 && r0.BalanceCents == 0 && r1.BalanceCents == 0
}

func TestAnomalyMatrix(t *testing.T) {
	probes := []struct {
		name    string
		run     func(*testing.T, *DB) bool
		allowed map[CCMode]bool
	}{
		{"dirty-read", probeDirtyRead,
			map[CCMode]bool{CC2PL: false, CCMVCC: false, CCSSI: false}},
		{"dirty-write", probeDirtyWrite,
			map[CCMode]bool{CC2PL: false, CCMVCC: false, CCSSI: false}},
		{"lost-update", probeLostUpdate,
			map[CCMode]bool{CC2PL: false, CCMVCC: false, CCSSI: false}},
		{"write-skew", probeWriteSkew,
			map[CCMode]bool{CC2PL: false, CCMVCC: true, CCSSI: false}},
	}
	for _, p := range probes {
		for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
			t.Run(p.name+"/"+cc.String(), func(t *testing.T) {
				d := openTiny(t, cc)
				got := p.run(t, d)
				want := p.allowed[cc]
				if got != want {
					verb := "admitted"
					if !got {
						verb = "refused"
					}
					t.Fatalf("%s under %s: %s, want admitted=%v", p.name, cc, verb, want)
				}
			})
		}
	}
}
