package wal

import (
	"bytes"
	"errors"
	"fmt"
)

// InDoubtTxn is a prepared-but-undecided transaction branch found during
// recovery: its prepare record is durable, but no commit or abort record
// follows. Under presumed abort the branch's row images have been rolled
// back to their before-images; Records retains the branch's data records
// (in LSN order) so the commit layer can re-apply the after-images if the
// coordinator's decision turns out to be commit.
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

// RecoverDist is Recover plus two-phase-commit bookkeeping: alongside the
// per-row committed state it reports in-doubt transactions (prepared, no
// decision) and the durable gid decision map. In-doubt rows are restored
// to their BEFORE-images — presumed abort — and their records are retained
// so a later commit decision can be re-applied idempotently.
func RecoverDist(l *Log, tables map[uint32]Applier) (RecoverStats, DistState, error) {
	var st RecoverStats
	dist := DistState{Decisions: make(map[uint64]bool)}
	committed := make(map[uint64]bool)
	decided := make(map[uint64]bool)
	prepared := make(map[uint64]uint64) // txn -> gid
	var prepOrder []uint64

	// Pass 1 walks the log where it lies, checksums included, to the first
	// damaged record: outcomes, prepares and the valid prefix length. No
	// transaction runs during recovery, so the buffer is read without the
	// log mutex (an applier may call back into Force).
	buf, truncated, scanErr := l.beginRecovery(func(r Record) {
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
	st.TruncatedBytes = truncated
	st.TailCorrupt = errors.Is(scanErr, ErrCorrupt)

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
	// Pass 2 walks the valid prefix again for the data records. Their
	// images alias the log buffer; only an in-doubt branch's are copied,
	// because they outlive recovery.
	for rest := buf; len(rest) > 0; {
		r, n, _ := parseRecord(rest) // pass 1 decoded this prefix
		rest = rest[n:]
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
			return st, dist, fmt.Errorf("wal: apply table %d rid %d: %w",
				key.table, key.rid, err)
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
