package db

import (
	"testing"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// The anomaly matrix pins every (anomaly, cc-mode) pair in one table:
// each probe runs the same hand-interleaved schedule under 2pl, mvcc and
// ssi, tolerating whichever refusal the mode throws (lock timeout, FCW
// conflict, ssi abort), and reports only whether the anomalous OUTCOME
// was admitted. The matrix is the contract the CC modes are sold on:
// write skew is the single cell where the modes differ.
//
//	             2pl    mvcc   ssi
//	dirty-read    –      –      –
//	dirty-write   –      –      –
//	lost-update   –      –      –
//	write-skew    –    ALLOWED  –

// matrixReadCustomer is tinyReadCustomer with the engine error surfaced
// instead of t.Fatal — under 2PL a read of an uncommitted-written row
// times out on the shared lock, which is a refusal, not a test bug.
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
	rec, err := matrixReadCustomer(r, 0)
	observed := err == nil && rec.BalanceCents == 111
	if err != nil {
		r.fail(err)
	} else if err := r.commit(); err != nil {
		r.fail(err)
	}
	if err := w.commit(); err != nil {
		t.Fatalf("lone writer must commit: %v", err)
	}
	return observed
}

// probeDirtyWrite: can a second writer replace a row whose update is
// still uncommitted?
func probeDirtyWrite(t *testing.T, d *DB) bool {
	t1 := d.NewSession().begin()
	if err := tinyWriteCustomer(t1, 0, func(c *CustomerRec) { c.BalanceCents = 111 }); err != nil {
		t.Fatal(err)
	}
	t2 := d.NewSession().begin()
	err := tinyWriteCustomer(t2, 0, func(c *CustomerRec) { c.BalanceCents = 222 })
	observed := err == nil
	if err != nil {
		t2.fail(err)
	} else if err := t2.commit(); err != nil {
		t2.fail(err)
	}
	if err := t1.commit(); err != nil {
		t.Fatalf("first writer must commit: %v", err)
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

// probeWriteSkew: the TestWriteSkew schedule — crossing guard reads,
// disjoint withdrawals. Admitted when both rows end up drained.
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
	step := func(tx *txn, guard, victim int64) bool {
		if _, err := matrixReadCustomer(tx, guard); err != nil {
			tx.fail(err)
			return false
		}
		if err := tinyWriteCustomer(tx, victim, func(c *CustomerRec) { c.BalanceCents = 0 }); err != nil {
			tx.fail(err)
			return false
		}
		return true
	}
	ok1 := step(t1, 1, 0)
	ok2 := step(t2, 0, 1)
	if ok1 {
		if err := t1.commit(); err != nil {
			t1.fail(err)
			ok1 = false
		}
	}
	if ok2 {
		if err := t2.commit(); err != nil {
			t2.fail(err)
			ok2 = false
		}
	}

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

// TestWriteSkewWitness pins the exported certification probe to the
// matrix's write-skew row — the CLI's cc-smoke gate calls the same
// function.
func TestWriteSkewWitness(t *testing.T) {
	want := map[CCMode]bool{CC2PL: false, CCMVCC: true, CCSSI: false}
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		got, err := WriteSkewWitness(cc)
		if err != nil {
			t.Fatalf("%s: %v", cc, err)
		}
		if got != want[cc] {
			t.Fatalf("WriteSkewWitness(%s) = %v, want %v", cc, got, want[cc])
		}
	}
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
				d.locks.SetWaitTimeout(2 * time.Millisecond)
				defer d.locks.SetWaitTimeout(0)
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
