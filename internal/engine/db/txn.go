package db

import (
	"errors"
	"fmt"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/mvcc"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

// ErrAborted is returned by transaction procedures that were chosen as
// deadlock victims and rolled back; callers should retry with the same
// input.
var ErrAborted = errors.New("db: transaction aborted, retry")

// ErrWriteConflict reports a first-committer-wins validation failure
// under CCMVCC: the transaction tried to overwrite a row committed after
// its snapshot. It wraps ErrAborted, so retry loops treat it like any
// abort while per-type stats can still tell conflicts from deadlocks.
var ErrWriteConflict = fmt.Errorf("db: snapshot write-write conflict: %w", ErrAborted)

// ErrSSIAbort reports a dangerous-structure abort under CCSSI: committing
// the transaction could have closed an rw-antidependency cycle, so it was
// chosen as the pivot victim. Like ErrWriteConflict it wraps ErrAborted —
// the retry loop handles it, per-type stats break it out (the rate IS the
// false-positive rate on TPC-C, which is serializable under plain SI).
var ErrSSIAbort = fmt.Errorf("db: serialization failure (rw-antidependency pivot): %w", ErrAborted)

// undoKind tags one entry of a transaction's undo list.
type undoKind uint8

const (
	// undoUpdate restores a before-image over an updated record.
	undoUpdate undoKind = iota
	// undoInsert deletes an inserted record.
	undoInsert
	// undoDelete re-inserts a deleted record at its old RID.
	undoDelete
	// undoSetIdx removes an added index entry.
	undoSetIdx
	// undoDelIdx restores a removed index entry.
	undoDelIdx
)

// undoOp is one typed entry of the undo list. Before-images live in the
// transaction's arena and are referenced by offset+length: the arena's
// backing array may move as it grows, so undo entries must never hold
// slices into it.
type undoOp struct {
	kind undoKind
	rel  core.Relation
	rid  storage.RID
	off  int // arena offset of the saved image (undoUpdate/undoDelete)
	n    int // image length
	g    *guardedTree
	key  uint64
	val  uint64
}

// custHit is one row of the non-unique customer-by-name select.
type custHit struct {
	cid int64
	rid uint64
}

// olref references one order line found by an index range scan.
type olref struct {
	key uint64
	rid uint64
}

// txn is one executing transaction: a lock owner plus a typed undo list
// for rollback. Strict 2PL: locks release only at commit/abort.
//
// A txn also owns the per-transaction scratch memory that keeps the
// execute path allocation-free: undo entries and their before-images
// (arena), the tuple read/marshal buffers (buf/img), and the range-scan
// collectors (hits/rids/refs/seen). Sessions reuse one txn value across
// transactions, so after warm-up a committed NewOrder or Payment
// performs zero heap allocations (enforced by alloc_test.go).
type txn struct {
	d    *DB
	id   lock.TxnID
	undo []undoOp
	// arena backs the before-images referenced by undo entries.
	arena []byte

	// buf and img are tuple-sized scratch: procs read and marshal
	// through them instead of allocating per record. Sized for the
	// largest tuple (Customer).
	buf []byte
	img []byte

	// hits, rids, refs, and seen are range-scan scratch for
	// middleCustomerByName, OrderStatus, and StockLevel.
	hits []custHit
	rids []uint64
	refs []olref
	seen []uint32

	// mv is the transaction's MVCC state (snapshot, written chains) and
	// retired the deferred-prune ring of its committed chains; both are
	// inert under CC2PL. They live here, not on the Session, so the
	// distributed Begin paths (which allocate bare txns) stay correct.
	mv      mvcc.Txn
	retired mvcc.RetireSet

	// ssiChecked records that SSI validation already ran (at the 2PC
	// prepare point), so commitWith must not re-validate: a prepared
	// branch has voted yes and MUST be able to commit.
	ssiChecked bool
}

// reset prepares t for a new transaction, reusing its scratch.
func (t *txn) reset(d *DB) {
	t.d = d
	t.id = lock.TxnID(d.txnSeq.Add(1))
	t.undo = t.undo[:0]
	t.arena = t.arena[:0]
	if t.buf == nil {
		t.buf = make([]byte, tpcc.TupleLen[core.Customer])
		t.img = make([]byte, tpcc.TupleLen[core.Customer])
	}
	t.ssiChecked = false
	if d.ccMVCC {
		// Take the snapshot and pay down this slot's pruning debt.
		d.mvcc.Begin(&t.mv, &t.retired)
	}
}

func (d *DB) begin() *txn {
	t := &txn{}
	t.reset(d)
	return t
}

// lockRow acquires a row lock, translating deadlock into rollback.
func (t *txn) lockRow(rel core.Relation, row uint64, mode lock.Mode) error {
	err := t.d.locks.Acquire(t.id, lock.Key{Table: uint32(rel), Row: row}, mode)
	if err != nil {
		return err
	}
	return nil
}

// ErrCommitUnknown wraps the error of a local commit whose log force failed
// after pre-commit: the transaction's writes are published and its commit
// record is buffered, so it has NOT been rolled back and must not be
// retried; whether it survives is for crash recovery to say. It was not
// acknowledged.
var ErrCommitUnknown = errors.New("db: commit outcome unknown until recovery")

// validate runs the SSI commit-time check once per transaction: a doomed
// pivot aborts and retries instead of committing. The 2PC prepare point
// runs it early (a prepared branch has voted yes and must stay able to
// commit), so commit then finds ssiChecked set.
func (t *txn) validate() error {
	if t.d.ccSSI && !t.ssiChecked {
		if err := t.d.mvcc.PreCommit(&t.mv); err != nil {
			return err
		}
		t.ssiChecked = true
	}
	return nil
}

// publish makes a pre-committed transaction's writes visible and gives up
// its locks. Under mvcc the commit timestamp is published and the chains
// flipped BEFORE the row locks go: the next writer of any of these rows
// must observe the new latest-commit timestamp for first-committer-wins
// validation to be sound.
func (t *txn) publish() {
	if t.d.ccMVCC {
		t.d.mvcc.Commit(&t.mv, &t.retired)
	}
	t.d.locks.ReleaseAll(t.id)
}

// commit ends a local transaction with early lock release: pre-commit (the
// commit record enters the log buffer), publish, release, and only then
// wait for the record to be durable, so neither the row locks nor the log
// mutex are held across the device's force. Until pre-commit a failure
// rolls the transaction back and returns the cause (ErrAborted = retry);
// after it the only failure is ErrCommitUnknown.
//
// A transaction that wrote nothing appends nothing, in every -cc mode. It
// acknowledges once every commit record pre-committed before this point is
// durable: whatever it read under its locks or in its snapshot was
// pre-committed by then, so it cannot be acknowledged ahead of a writer it
// read from.
func (t *txn) commit() error {
	if err := t.validate(); err != nil {
		return t.fail(err)
	}
	var durable error
	if len(t.undo) == 0 {
		t.publish()
		durable = t.d.log.WaitPreCommitted()
	} else {
		_, end, err := t.d.log.PreCommit(wal.Record{Txn: uint64(t.id), Type: wal.RecCommit})
		if err != nil {
			return t.fail(err)
		}
		t.publish()
		durable = t.d.log.WaitDurable(end)
	}
	if durable != nil {
		return fmt.Errorf("%w: %w", ErrCommitUnknown, durable)
	}
	t.d.commits.Add(1)
	return nil
}

// commitWith commits a branch of a distributed transaction, carrying its
// global id in the record's RID field. Force-then-release: a decision or a
// participant's commit must be durable before anyone is told, and on the
// home branch this record IS the global decision (recovery rebuilds the
// coordinator's outcome map from it). A failed force leaves no record and
// the branch open.
func (t *txn) commitWith(gid uint64) error {
	if err := t.validate(); err != nil {
		return err
	}
	if _, err := t.d.log.Append(wal.Record{Txn: uint64(t.id), Type: wal.RecCommit, RID: gid}); err != nil {
		return err
	}
	t.d.setOutcome(gid, true)
	t.publish()
	t.d.commits.Add(1)
	return nil
}

// rollback applies the undo list in reverse, logs an abort, and releases.
func (t *txn) rollback() error { return t.rollbackWith(0) }

// rollbackWith is rollback carrying a global transaction id (0 for local
// transactions). The abort record is buffered, never forced: recovery
// treats a transaction without a commit record as aborted and restores its
// before-images either way, and under presumed abort a gid with no durable
// decision reads as aborted too.
func (t *txn) rollbackWith(gid uint64) error {
	var firstErr error
	for i := len(t.undo) - 1; i >= 0; i-- {
		if err := t.applyUndo(&t.undo[i]); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// A failed log refuses the record; that is as benign as losing it.
	_, _, _ = t.d.log.PreCommit(wal.Record{Txn: uint64(t.id), Type: wal.RecAbort, RID: gid})
	if gid != 0 {
		t.d.setOutcome(gid, false)
	}
	if t.d.ccMVCC {
		// Pop pushed versions only AFTER the undo loop above restored the
		// heap before-images: while the writer mark is set, readers
		// resolve through the chain, so they never see the intermediate
		// heap states; once popped, the (restored) heap is authoritative.
		t.d.mvcc.Abort(&t.mv, &t.retired)
	}
	t.d.locks.ReleaseAll(t.id)
	t.d.aborts.Add(1)
	if firstErr != nil {
		return fmt.Errorf("db: rollback failed: %w", firstErr)
	}
	return nil
}

// applyUndo reverses one operation.
func (t *txn) applyUndo(op *undoOp) error {
	switch op.kind {
	case undoUpdate:
		return t.d.heaps[op.rel].Update(op.rid, t.arena[op.off:op.off+op.n])
	case undoInsert:
		return t.d.heaps[op.rel].Delete(op.rid)
	case undoDelete:
		return t.d.heaps[op.rel].InsertAt(op.rid, t.arena[op.off:op.off+op.n])
	case undoSetIdx:
		return op.g.delete(op.key)
	case undoDelIdx:
		op.g.set(op.key, op.val)
		return nil
	default:
		return fmt.Errorf("db: unknown undo kind %d", op.kind)
	}
}

// saveImage copies img into the arena and returns its offset.
func (t *txn) saveImage(img []byte) int {
	off := len(t.arena)
	t.arena = append(t.arena, img...)
	return off
}

// fail rolls back and wraps the cause; deadlocks surface as ErrAborted,
// first-committer-wins losses as ErrWriteConflict (itself an ErrAborted).
func (t *txn) fail(cause error) error {
	if rbErr := t.rollback(); rbErr != nil {
		return rbErr
	}
	if errors.Is(cause, mvcc.ErrConflict) {
		return ErrWriteConflict
	}
	if errors.Is(cause, mvcc.ErrSSI) {
		return ErrSSIAbort
	}
	if errors.Is(cause, lock.ErrDeadlock) {
		return ErrAborted
	}
	return cause
}

// readRec reads the record bytes at rid into out.
func (t *txn) readRec(rel core.Relation, rid storage.RID, out []byte) error {
	return t.d.heaps[rel].Read(rid, out)
}

// updateRec overwrites the record at rid, logging the after-image and
// queueing an undo that restores the before-image. Both images are
// copied before returning (the log encodes them immediately, the undo
// saves before into the arena), so callers may pass reused scratch.
func (t *txn) updateRec(rel core.Relation, rid storage.RID, before, after []byte) error {
	if _, err := t.d.log.Append(wal.Record{
		Txn: uint64(t.id), Type: wal.RecUpdate, Table: uint32(rel),
		RID: rid.Pack(), Before: before, After: after,
	}); err != nil {
		return err
	}
	if err := t.d.heaps[rel].Update(rid, after); err != nil {
		return err
	}
	off := t.saveImage(before)
	t.undo = append(t.undo, undoOp{kind: undoUpdate, rel: rel, rid: rid, off: off, n: len(before)})
	return nil
}

// insertRec inserts a record, logging it and queueing deletion as undo.
// rec is copied by both the heap and the log, so it may be reused scratch.
func (t *txn) insertRec(rel core.Relation, rec []byte) (storage.RID, error) {
	rid, err := t.d.heaps[rel].Insert(rec)
	if err != nil {
		return storage.RID{}, err
	}
	if _, err := t.d.log.Append(wal.Record{
		Txn: uint64(t.id), Type: wal.RecInsert, Table: uint32(rel),
		RID: rid.Pack(), After: rec,
	}); err != nil {
		return storage.RID{}, err
	}
	t.undo = append(t.undo, undoOp{kind: undoInsert, rel: rel, rid: rid})
	return rid, nil
}

// deleteRec removes the record at rid, queueing reinsertion as undo.
// before is copied, so it may be reused scratch.
func (t *txn) deleteRec(rel core.Relation, rid storage.RID, before []byte) error {
	if _, err := t.d.log.Append(wal.Record{
		Txn: uint64(t.id), Type: wal.RecDelete, Table: uint32(rel),
		RID: rid.Pack(), Before: before,
	}); err != nil {
		return err
	}
	if err := t.d.heaps[rel].Delete(rid); err != nil {
		return err
	}
	off := t.saveImage(before)
	t.undo = append(t.undo, undoOp{kind: undoDelete, rel: rel, rid: rid, off: off, n: len(before)})
	return nil
}

// snapRead reads the version of the row visible to this transaction into
// out. Under 2PL that is an S-locked current read — the lock IS the
// visibility rule — and an absent record is an error (the index said the
// row exists). Under mvcc it is a lock-free read: the current heap image
// (tolerating absence) resolved against the version store. live=false
// reports a row with no version at the snapshot — expected under mvcc
// when an index entry leads to a row committed after the snapshot began;
// callers skip such rows.
func (t *txn) snapRead(rel core.Relation, row uint64, rid storage.RID, out []byte) (bool, error) {
	if !t.d.ccMVCC {
		if err := t.lockRow(rel, row, lock.Shared); err != nil {
			return false, err
		}
		if err := t.readRec(rel, rid, out); err != nil {
			return false, err
		}
		return true, nil
	}
	live := true
	if err := t.readRec(rel, rid, out); err != nil {
		if !errors.Is(err, storage.ErrNoRecord) {
			return false, err
		}
		live = false
	}
	return t.d.mvcc.Read(&t.mv, mvcc.Key{Table: uint32(rel), Row: row}, live, out), nil
}

// mvWrite validates and versions a row about to be overwritten (before is
// its current image; nil for an insert). No-op under 2PL. The caller must
// already hold the row's exclusive lock and must perform the heap
// mutation only after mvWrite returns nil — chain state precedes heap
// state so concurrent snapshot readers never resolve a half-written row.
func (t *txn) mvWrite(rel core.Relation, row uint64, before []byte) error {
	if !t.d.ccMVCC {
		return nil
	}
	return t.d.mvcc.Write(&t.mv, mvcc.Key{Table: uint32(rel), Row: row}, before)
}

// updateRow is updateRec plus first-committer-wins validation and
// before-image versioning under mvcc. row is the logical row key (the
// same key the exclusive lock was taken on).
func (t *txn) updateRow(rel core.Relation, row uint64, rid storage.RID, before, after []byte) error {
	if err := t.mvWrite(rel, row, before); err != nil {
		return err
	}
	return t.updateRec(rel, rid, before, after)
}

// insertRow is insertRec plus versioning: the chain records that the row
// was absent before this transaction, so older snapshots skip it.
func (t *txn) insertRow(rel core.Relation, row uint64, rec []byte) (storage.RID, error) {
	if err := t.mvWrite(rel, row, nil); err != nil {
		return storage.RID{}, err
	}
	return t.insertRec(rel, rec)
}

// deleteRow is deleteRec plus versioning: older snapshots keep seeing the
// before image after the heap slot is gone.
func (t *txn) deleteRow(rel core.Relation, row uint64, rid storage.RID, before []byte) error {
	if err := t.mvWrite(rel, row, before); err != nil {
		return err
	}
	return t.deleteRec(rel, rid, before)
}

// setIdx adds an index entry with undo.
func (t *txn) setIdx(g *guardedTree, key, val uint64) {
	g.set(key, val)
	t.undo = append(t.undo, undoOp{kind: undoSetIdx, g: g, key: key})
}

// delIdx removes an index entry with undo.
func (t *txn) delIdx(g *guardedTree, key, val uint64) error {
	if err := g.delete(key); err != nil {
		return err
	}
	t.undo = append(t.undo, undoOp{kind: undoDelIdx, g: g, key: key, val: val})
	return nil
}
