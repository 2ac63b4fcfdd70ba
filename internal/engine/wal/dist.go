package wal

import (
	"bytes"
	"errors"
	"fmt"
)

// InDoubtTxn is a prepared-but-undecided transaction branch found during
// recovery: its prepare record is durable, but no commit or abort record
// follows. Under presumed abort the branch's rows have been rolled back;
// Records retains the branch's data records (in LSN order, updates as
// spans) so the commit layer can Redo them if the coordinator's decision
// turns out to be commit.
type InDoubtTxn struct {
	// Txn is the branch's local transaction id.
	Txn uint64
	// GID is the global (distributed) transaction id the prepare record
	// carried in its RID field.
	GID uint64
	// Records holds the branch's data records in LSN order.
	Records []Record
}

// DistState is what distributed recovery learned beyond row images.
type DistState struct {
	// InDoubt lists prepared branches with no durable decision, in
	// prepare-LSN order.
	InDoubt []InDoubtTxn
	// Decisions maps global transaction ids to their durable outcome
	// (true = committed): every commit/abort record carrying a nonzero
	// gid contributes. A coordinator consults this map when a recovering
	// participant asks for a verdict; a gid absent from the coordinator's
	// map means abort (presumed abort — abort decisions need no durable
	// record).
	Decisions map[uint64]bool
	// MaxTxn is the largest local transaction id any record carried, so
	// the engine can restart its id sequence past every logged one.
	MaxTxn uint64
}

// rowKey addresses one row of one table.
type rowKey struct {
	table uint32
	rid   uint64
}

// rowFold is one row's state while recovery folds its records.
type rowFold struct {
	rowKey
	// image is the row so far, nil when absent. It is meaningful once
	// known; until then the row is whatever the durable page holds, not yet
	// read. own says image is recovery's copy, free to be patched in place,
	// and not bytes of the log.
	image      []byte
	known, own bool
	// run is the row's pending loser run: the records of transactions
	// without a commit record since the last winner's record on the row.
	run []Record
}

// set makes image, bytes of the log, the row.
func (f *rowFold) set(image []byte) { f.image, f.known, f.own = image, true, false }

// patch writes span over the row at off. A row not known yet is first read
// from the durable table through a, an image that still aliases the log is
// first copied, and an absent row is left absent.
func (f *rowFold) patch(a Applier, off uint32, span []byte) error {
	if !f.own {
		if !f.known {
			row, err := a.Read(f.rid)
			if err != nil {
				return err
			}
			f.image = row
		}
		f.image, f.known, f.own = bytes.Clone(f.image), true, true
	}
	if f.image == nil {
		return nil
	}
	return patch(f.image, off, span)
}

// redo applies a winner's record.
func (f *rowFold) redo(a Applier, r Record) error {
	switch r.Type {
	case RecInsert:
		f.set(r.After)
	case RecDelete:
		f.set(nil)
	default:
		return f.patch(a, r.Off, r.After)
	}
	return nil
}

// undoRun takes the pending loser run back off the row, newest record
// first.
func (f *rowFold) undoRun(a Applier) error {
	for i := len(f.run) - 1; i >= 0; i-- {
		switch r := f.run[i]; r.Type {
		case RecInsert:
			f.set(nil)
		case RecDelete:
			f.set(r.Before)
		default:
			if err := f.patch(a, r.Off, r.Before); err != nil {
				return err
			}
		}
	}
	f.run = f.run[:0]
	return nil
}

// RecoverDist is Recover plus two-phase-commit bookkeeping: alongside the
// per-row committed state it reports in-doubt transactions (prepared, no
// decision) and the durable gid decision map. In-doubt branches are losers
// like any other — presumed abort — and their records are retained so a
// later commit decision can be re-applied.
func RecoverDist(l *Log, tables map[uint32]Applier) (RecoverStats, DistState, error) {
	var st RecoverStats
	dist := DistState{Decisions: make(map[uint64]bool)}
	committed := make(map[uint64]bool)
	decided := make(map[uint64]bool)
	prepared := make(map[uint64]uint64) // txn -> gid
	var prepOrder []uint64

	// Pass 1 walks the log where it lies, checksums included, to the first
	// damaged record: outcomes, prepares and the valid prefix length. No
	// transaction runs during recovery, so the log is read without its
	// mutex (an applier may call back into Force).
	valid, truncated, scanErr := l.beginRecovery(func(r Record) {
		st.Records++
		dist.MaxTxn = max(dist.MaxTxn, r.Txn)
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
	})
	st.Bytes = int64(valid)
	st.TruncatedBytes = truncated
	st.TailCorrupt = errors.Is(scanErr, ErrCorrupt)

	// Pass 2 walks the valid prefix again and folds the data records into
	// their rows, kept in the order the log first touches them. Images and
	// spans alias the log; only an in-doubt branch's are copied, because
	// they outlive recovery.
	index := make(map[rowKey]int32)
	var rows []rowFold
	inDoubtRecs := make(map[uint64][]Record)
	fail := func(f *rowFold, err error) (RecoverStats, DistState, error) {
		return st, dist, fmt.Errorf("wal: apply table %d rid %d: %w", f.table, f.rid, err)
	}
	for c := (cursor{segs: l.segs, end: valid}); c.off < c.end; {
		r, _ := c.next(false) // pass 1 decoded this prefix
		switch r.Type {
		case RecCommit, RecAbort, RecPrepare:
			continue
		}
		if _, prep := prepared[r.Txn]; prep && !decided[r.Txn] {
			kept := r
			kept.Before = bytes.Clone(r.Before)
			kept.After = bytes.Clone(r.After)
			inDoubtRecs[r.Txn] = append(inDoubtRecs[r.Txn], kept)
		}
		a, ok := tables[r.Table]
		if !ok {
			return st, dist, fmt.Errorf("wal: no applier for table %d", r.Table)
		}
		key := rowKey{table: r.Table, rid: r.RID}
		i, seen := index[key]
		if !seen {
			i = int32(len(rows))
			index[key] = i
			rows = append(rows, rowFold{rowKey: key})
		}
		f := &rows[i]
		if !committed[r.Txn] {
			st.SkippedUncommitted++
			f.run = append(f.run, r)
			continue
		}
		err := f.undoRun(a)
		if err == nil {
			err = f.redo(a, r)
		}
		if err != nil {
			return fail(f, err)
		}
	}
	for i := range rows {
		f := &rows[i]
		a := tables[f.table]
		err := f.undoRun(a)
		if err == nil {
			err = a.Apply(f.rid, f.image)
		}
		if err != nil {
			return fail(f, err)
		}
		st.Applied++
	}
	for _, txn := range prepOrder {
		if decided[txn] {
			continue
		}
		dist.InDoubt = append(dist.InDoubt, InDoubtTxn{
			Txn: txn, GID: prepared[txn], Records: inDoubtRecs[txn],
		})
	}
	return st, dist, nil
}
