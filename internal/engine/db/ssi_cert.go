package db

import (
	"errors"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/tpcc"
)

// WriteSkewWitness runs the canonical two-transaction write-skew
// schedule — crossing guard reads over two 50-cent balances, disjoint
// withdrawals — on a throwaway fixture in the given CC mode and reports
// whether the anomalous outcome (both rows drained) was admitted. It is
// the certification probe behind `tpcc-engine cc -check` / the cc-smoke
// CI leg: the expected answers are true for mvcc (SI's one documented
// anomaly), false for 2pl (lock collision) and false for ssi (the
// dangerous-structure abort this mode exists to deliver). Any refusal
// the mode throws — lock timeout, FCW conflict, ssi abort — counts as
// "not admitted"; an unexpected engine error is returned instead.
func WriteSkewWitness(cc CCMode) (bool, error) {
	d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 256, CC: cc},
		Options{LockWaitTimeout: 5 * time.Millisecond})
	if err != nil {
		return false, err
	}

	// Two customer rows at balance 50, hand-inserted (no full load).
	n := tpcc.TupleLen[core.Customer]
	seed := d.NewSession().begin()
	buf := make([]byte, n)
	for dist := int64(0); dist < 2; dist++ {
		cr := CustomerRec{DID: uint32(dist), BalanceCents: 50}
		cr.Marshal(buf)
		key := index.KeyWDC(0, dist, 0)
		if _, err := seed.insertKeyed(core.Customer, d.customerIdx, key, buf); err != nil {
			return false, seed.fail(err)
		}
	}
	if err := seed.commit(); err != nil {
		return false, err
	}

	readBal := func(tx *txn, dist int64) (int64, error) {
		cur, err := tx.snap(core.Customer, d.customerIdx, index.KeyWDC(0, dist, 0))
		if err != nil {
			return 0, err
		}
		var rec CustomerRec
		rec.Unmarshal(cur)
		return rec.BalanceCents, nil
	}
	drain := func(tx *txn, dist int64) error {
		r, err := tx.fetch(core.Customer, d.customerIdx, index.KeyWDC(0, dist, 0))
		if err != nil {
			return err
		}
		var rec CustomerRec
		rec.Unmarshal(r.cur)
		rec.BalanceCents = 0
		rec.Marshal(r.next)
		return tx.store(r)
	}

	t1 := d.NewSession().begin()
	t2 := d.NewSession().begin()
	step := func(tx *txn, guard, victim int64) (bool, error) {
		if _, err := readBal(tx, guard); err != nil {
			if ferr := tx.fail(err); errors.Is(ferr, ErrAborted) {
				return false, nil
			}
			return false, err
		}
		if err := drain(tx, victim); err != nil {
			if ferr := tx.fail(err); errors.Is(ferr, ErrAborted) {
				return false, nil
			}
			return false, err
		}
		return true, nil
	}
	ok1, err := step(t1, 1, 0)
	if err != nil {
		return false, err
	}
	ok2, err := step(t2, 0, 1)
	if err != nil {
		return false, err
	}
	commit := func(tx *txn, ok bool) (bool, error) {
		if !ok {
			return false, nil
		}
		if err := tx.commit(); err != nil {
			if errors.Is(err, ErrAborted) { // commit rolled the pivot back
				return false, nil
			}
			return false, err
		}
		return true, nil
	}
	if ok1, err = commit(t1, ok1); err != nil {
		return false, err
	}
	if ok2, err = commit(t2, ok2); err != nil {
		return false, err
	}

	fin := d.NewSession().begin()
	b0, err := readBal(fin, 0)
	if err != nil {
		return false, err
	}
	b1, err := readBal(fin, 1)
	if err != nil {
		return false, err
	}
	if err := fin.commit(); err != nil {
		return false, err
	}
	return ok1 && ok2 && b0 == 0 && b1 == 0, nil
}
