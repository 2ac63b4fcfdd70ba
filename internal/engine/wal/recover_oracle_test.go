package wal

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"tpccmodel/internal/rng"
)

// recoverDistCopying is recovery as it was before it learned to walk the
// log in place: Scan copies the whole buffer, every record's images are
// copied out of that, and both passes run over the decoded slice. It is
// kept as the oracle the in-place RecoverDist is compared against.
func recoverDistCopying(l *Log, tables map[uint32]Applier) (RecoverStats, DistState, error) {
	var st RecoverStats
	dist := DistState{Decisions: make(map[uint64]bool)}
	recs, valid, scanErr := l.Scan()
	for i := range recs {
		recs[i].Before = bytes.Clone(recs[i].Before)
		recs[i].After = bytes.Clone(recs[i].After)
	}
	if scanErr != nil {
		st.TruncatedBytes = l.Size() - valid
		st.TailCorrupt = errors.Is(scanErr, ErrCorrupt)
		l.data = l.data[:valid]
		l.forcedLen = min(l.forcedLen, int(valid))
	}
	committed := make(map[uint64]bool)
	decided := make(map[uint64]bool)
	prepared := make(map[uint64]uint64)
	var prepOrder []uint64
	for _, r := range recs {
		if r.Txn > dist.MaxTxn {
			dist.MaxTxn = r.Txn
		}
		switch r.Type {
		case RecCommit:
			committed[r.Txn] = true
			decided[r.Txn] = true
			if r.RID != 0 {
				dist.Decisions[r.RID] = true
			}
		case RecAbort:
			decided[r.Txn] = true
			if r.RID != 0 {
				dist.Decisions[r.RID] = false
			}
		case RecPrepare:
			if _, seen := prepared[r.Txn]; !seen {
				prepOrder = append(prepOrder, r.Txn)
			}
			prepared[r.Txn] = r.RID
		}
	}
	type rowKey struct {
		table uint32
		rid   uint64
	}
	type rowState struct {
		image []byte
		known bool
	}
	state := make(map[rowKey]rowState)
	order := make([]rowKey, 0)
	inDoubtRecs := make(map[uint64][]Record)
	for _, r := range recs {
		switch r.Type {
		case RecCommit, RecAbort, RecPrepare:
			continue
		}
		if _, prep := prepared[r.Txn]; prep && !decided[r.Txn] {
			inDoubtRecs[r.Txn] = append(inDoubtRecs[r.Txn], r)
		}
		if _, ok := tables[r.Table]; !ok {
			return st, dist, fmt.Errorf("wal: no applier for table %d", r.Table)
		}
		key := rowKey{table: r.Table, rid: r.RID}
		cur, seen := state[key]
		if !seen {
			order = append(order, key)
		}
		if committed[r.Txn] {
			state[key] = rowState{image: r.After, known: true}
			continue
		}
		st.SkippedUncommitted++
		if !cur.known {
			state[key] = rowState{image: r.Before, known: true}
		}
	}
	for _, key := range order {
		if err := tables[key.table].Apply(key.rid, state[key].image); err != nil {
			return st, dist, fmt.Errorf("wal: apply table %d rid %d: %w", key.table, key.rid, err)
		}
		st.Applied++
	}
	for _, txn := range prepOrder {
		if decided[txn] {
			continue
		}
		dist.InDoubt = append(dist.InDoubt, InDoubtTxn{Txn: txn, GID: prepared[txn], Records: inDoubtRecs[txn]})
	}
	return st, dist, nil
}

// applyLog records every Apply call in order: two recoveries that apply the
// same images to the same rows in the same order leave the same heap pages,
// hence the same db.StateHash.
type applyLog struct {
	table uint32
	calls *[]string
}

func (a applyLog) Apply(rid uint64, image []byte) error {
	*a.calls = append(*a.calls, fmt.Sprintf("%d/%d=%x nil=%v", a.table, rid, image, image == nil))
	return nil
}

// checkAgainstOracle recovers a copy of l with the copying oracle and
// reports how the in-place result (st, dist, err over calls) differs.
func checkAgainstOracle(t testing.TB, before *Log, tableIDs []uint32, st RecoverStats, dist DistState, err error, calls []string, after *Log) {
	t.Helper()
	var wantCalls []string
	tables := map[uint32]Applier{}
	for _, id := range tableIDs {
		tables[id] = applyLog{table: id, calls: &wantCalls}
	}
	wantSt, wantDist, wantErr := recoverDistCopying(before, tables)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("in-place recovery error %v, oracle %v", err, wantErr)
	}
	if st != wantSt {
		t.Fatalf("in-place stats %+v, oracle %+v", st, wantSt)
	}
	if !reflect.DeepEqual(dist, wantDist) {
		t.Fatalf("in-place dist state %+v, oracle %+v", dist, wantDist)
	}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Fatalf("in-place recovery applied %v, oracle %v", calls, wantCalls)
	}
	if !bytes.Equal(after.data, before.data) {
		t.Fatalf("in-place recovery kept %d log bytes, oracle %d", len(after.data), len(before.data))
	}
}

// cloneLog copies a log's bytes and watermark.
func cloneLog(l *Log) *Log {
	c := New()
	c.data = bytes.Clone(l.data)
	c.forcedLen, c.next = l.forcedLen, l.next
	return c
}

// recoverChecked is RecoverDist through recording appliers layered over
// the caller's, with the result compared against the copying oracle.
func recoverChecked(t testing.TB, l *Log, tables map[uint32]Applier) (RecoverStats, DistState, error) {
	t.Helper()
	before := cloneLog(l)
	var calls []string
	var ids []uint32
	wrapped := map[uint32]Applier{}
	for id, inner := range tables {
		ids = append(ids, id)
		wrapped[id] = teeApplier{applyLog{table: id, calls: &calls}, inner}
	}
	st, dist, err := RecoverDist(l, wrapped)
	checkAgainstOracle(t, before, ids, st, dist, err, calls, l)
	return st, dist, err
}

type teeApplier struct {
	log   applyLog
	inner Applier
}

func (a teeApplier) Apply(rid uint64, image []byte) error {
	_ = a.log.Apply(rid, image)
	return a.inner.Apply(rid, image)
}

// TestInPlaceRecoveryMatchesCopyingOracle drives both recoveries over
// seeded random logs shaped like the engine's: interleaved transactions
// updating, inserting and deleting rows of two tables, some prepared under
// a gid, some committed, some aborted, some left open, with the tail
// sometimes cut mid-record and sometimes torn. Stats, decisions, in-doubt
// branches (records and images included) and the sequence of applied
// images must be identical.
func TestInPlaceRecoveryMatchesCopyingOracle(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		l := New()
		open := []uint64{}
		nextTxn := uint64(1)
		img := func() []byte {
			b := make([]byte, 1+r.Int63n(24))
			for i := range b {
				b[i] = byte(r.Int63n(256))
			}
			return b
		}
		for n := 20 + r.Int63n(120); n > 0; n-- {
			if len(open) == 0 || r.Bernoulli(0.2) {
				open = append(open, nextTxn)
				nextTxn++
			}
			i := int(r.Int63n(int64(len(open))))
			txn := open[i]
			rec := Record{Txn: txn, Table: uint32(r.Int63n(2)), RID: uint64(r.Int63n(12))}
			closeTxn := false
			switch k := r.Int63n(10); {
			case k < 4:
				rec.Type, rec.Before, rec.After = RecUpdate, img(), img()
			case k < 6:
				rec.Type, rec.After = RecInsert, img()
			case k < 7:
				rec.Type, rec.Before = RecDelete, img()
			case k < 8:
				rec.Type, rec.Table, rec.RID = RecPrepare, 0, 1<<48|txn
			case k < 9:
				rec.Type, rec.Table, rec.RID, closeTxn = RecCommit, 0, uint64(r.Int63n(2))*(1<<48|txn), true
			default:
				rec.Type, rec.Table, rec.RID, closeTxn = RecAbort, 0, uint64(r.Int63n(2))*(1<<48|txn), true
			}
			if _, _, err := l.PreCommit(rec); err != nil {
				t.Fatal(err)
			}
			if closeTxn {
				open = append(open[:i], open[i+1:]...)
			}
		}
		switch r.Int63n(3) {
		case 1:
			l.data = l.data[:int64(len(l.data))-r.Int63n(int64(len(l.data))/2)]
		case 2:
			l.forcedLen = int(r.Int63n(int64(len(l.data))))
			l.CrashTail(r)
		}
		tab0, tab1 := newMemTable(), newMemTable()
		if _, _, err := recoverChecked(t, l, map[uint32]Applier{0: tab0, 1: tab1}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}
