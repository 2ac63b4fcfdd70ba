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
// collectors (hits/refs/seen). Sessions reuse one txn value across
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

	// hits, refs, and seen are range-scan scratch for
	// middleCustomerByName, OrderStatus, and StockLevel.
	hits []custHit
	refs []olref
	seen []uint32

	// mv is the transaction's MVCC state (snapshot, written chains) and
	// retired the deferred-prune ring of its committed chains; both are
	// inert under CC2PL. A ring is drained only by the next Begin on the
	// same txn value, so every transaction — 2PC branches included — runs
	// on a Session that is reused; chains committed by a txn value that is
	// thrown away afterwards would never be pruned.
	mv      mvcc.Txn
	retired mvcc.RetireSet

	// holds counts this transaction's deletes: heap slots held until it ends.
	holds int

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
	t.holds = 0
	if d.ccMVCC {
		// Take the snapshot and pay down this slot's pruning debt.
		d.mvcc.Begin(&t.mv, &t.retired)
	}
}

// lockRow acquires a row lock (lock.ErrDeadlock/ErrTimeout = roll back).
func (t *txn) lockRow(rel core.Relation, row uint64, mode lock.Mode) error {
	return t.d.locks.Acquire(t.id, lock.Key{Table: uint32(rel), Row: row}, mode)
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
	t.unhold()
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

// maxUndoRetries bounds how often a rollback retries one undo step that hit
// a transient I/O error before it gives the step up.
const maxUndoRetries = 8

// rollbackWith applies the undo list in reverse, logs an abort carrying
// the global transaction id (0 for local transactions), and releases.
// The abort record is buffered, never forced: recovery treats a
// transaction without a commit record as aborted and undoes its
// records either way, and under presumed abort a gid with no durable
// decision reads as aborted too.
//
// An undo step pins its row's page, which may have been evicted since and
// whose read (or the write-back that makes room for it) may fail. A rollback
// cannot itself be rolled back and retried, and a step given up leaves the
// row changed with its lock about to be released, so a transient device error
// (storage.ErrTransientIO) is retried in place, a bounded number of times, as
// the log does for a force. A failed step is safe to repeat: the heap
// operations fail at the pin, before they touch the page.
func (t *txn) rollbackWith(gid uint64) error {
	var firstErr error
	for i := len(t.undo) - 1; i >= 0; i-- {
		err := t.applyUndo(&t.undo[i])
		for try := 0; try < maxUndoRetries && errors.Is(err, storage.ErrTransientIO); try++ {
			err = t.applyUndo(&t.undo[i])
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	t.unhold()
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

// finish ends a local transaction whose body returned err: roll back and
// classify on failure, commit otherwise.
func (t *txn) finish(err error) error {
	if err != nil {
		return t.fail(err)
	}
	return t.commit()
}

// fail rolls back and wraps the cause; deadlocks surface as ErrAborted,
// first-committer-wins losses as ErrWriteConflict (itself an ErrAborted).
func (t *txn) fail(cause error) error {
	if rbErr := t.rollbackWith(0); rbErr != nil {
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

// insertRec inserts a record, logging it and queueing deletion as undo.
// rec is copied by both the heap and the log, so it may be reused scratch.
// Rows other transactions can reach go through insertKeyed; only History,
// which has no key and no index, is inserted bare.
//
// The heap picks the RID, so the row is on its page before the record can be
// written; the page stays pinned and latched until the record is in the log,
// and the unpin that dirties it comes after — log, then dirty, like store and
// deleteRow, which is what lets the buffer manager force the log only as far
// as the frame's last dirtying unpin saw it (bufmgr's WAL rule).
func (t *txn) insertRec(rel core.Relation, rec []byte) (storage.RID, error) {
	h := t.d.heaps[rel]
	rid, page, err := h.InsertPinned(rec)
	if err != nil {
		return storage.RID{}, err
	}
	_, err = t.d.log.Append(wal.Record{
		Txn: uint64(t.id), Type: wal.RecInsert, Table: uint32(rel),
		RID: rid.Pack(), After: rec,
	})
	h.Release(page)
	if err != nil {
		return storage.RID{}, err
	}
	t.undo = append(t.undo, undoOp{kind: undoInsert, rel: rel, rid: rid})
	return rid, nil
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

// snap is the keyed snapshot read: probe the relation's primary index g
// and read the version of the row this transaction may see into t.buf
// (valid until the next read). Range scans, which hold a RID, use snapRead.
func (t *txn) snap(rel core.Relation, g *guardedTree, key uint64) ([]byte, error) {
	rid, ok := g.get(key)
	if !ok {
		return nil, fmt.Errorf("db: no %s row %#x", rel, key)
	}
	out := t.buf[:tpcc.TupleLen[rel]]
	_, err := t.snapRead(rel, key, storage.UnpackRID(rid), out)
	return out, err
}

// row is one record fetched for update. cur (in t.buf) is its current
// image, next (in t.img) is where the caller marshals the new one; both
// are transaction scratch, so one fetched row is open at a time.
type row struct {
	rel  core.Relation
	key  uint64
	rid  storage.RID
	cur  []byte
	next []byte
}

// fetch and store are the two halves of every row update. fetch takes the
// row's exclusive lock by its logical key, probes the relation's primary
// index g, and reads the CURRENT record — written rows are read under
// their lock in every -cc mode; under mvcc the store validates first
// committer wins instead. The caller unmarshals r.cur, changes the typed
// record, marshals it into r.next, and calls store.
func (t *txn) fetch(rel core.Relation, g *guardedTree, key uint64) (row, error) {
	if err := t.lockRow(rel, key, lock.Exclusive); err != nil {
		return row{}, err
	}
	rid, ok := g.get(key)
	if !ok {
		return row{}, fmt.Errorf("db: no %s row %#x", rel, key)
	}
	n := tpcc.TupleLen[rel]
	r := row{rel: rel, key: key, rid: storage.UnpackRID(rid), cur: t.buf[:n], next: t.img[:n]}
	if err := t.readRec(rel, r.rid, r.cur); err != nil {
		return row{}, err
	}
	return r, nil
}

// store writes r.next over the fetched row: first-committer-wins
// validation and versioning under mvcc, the log record, the heap update,
// and an undo entry restoring r.cur. Both images are copied (log encoding,
// undo arena) before it returns, so every row can share the one scratch.
func (t *txn) store(r row) error {
	if err := t.mvWrite(r.rel, r.key, r.cur); err != nil {
		return err
	}
	if _, err := t.d.log.Append(wal.Record{
		Txn: uint64(t.id), Type: wal.RecUpdate, Table: uint32(r.rel),
		RID: r.rid.Pack(), Before: r.cur, After: r.next,
	}); err != nil {
		return err
	}
	if err := t.d.heaps[r.rel].Update(r.rid, r.next); err != nil {
		return err
	}
	off := t.saveImage(r.cur)
	t.undo = append(t.undo, undoOp{kind: undoUpdate, rel: r.rel, rid: r.rid, off: off, n: len(r.cur)})
	return nil
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

// insertKeyed inserts a row that has a logical key: exclusive lock on the
// key, a version-chain entry saying the row was absent before this
// transaction (older snapshots skip it), insertRec, and the entry in the
// relation's primary index g.
func (t *txn) insertKeyed(rel core.Relation, g *guardedTree, key uint64, rec []byte) (storage.RID, error) {
	if err := t.lockRow(rel, key, lock.Exclusive); err != nil {
		return storage.RID{}, err
	}
	if err := t.mvWrite(rel, key, nil); err != nil {
		return storage.RID{}, err
	}
	rid, err := t.insertRec(rel, rec)
	if err != nil {
		return storage.RID{}, err
	}
	t.setIdx(g, key, rid.Pack())
	return rid, nil
}

// deleteRow removes the record at rid, versioning it first (older
// snapshots keep seeing before after the heap slot is gone) and queueing
// reinsertion as undo. before is copied, so it may be reused scratch. The
// emptied slot stays out of other transactions' inserts until this one ends
// (unhold): its rollback needs the slot back.
func (t *txn) deleteRow(rel core.Relation, row uint64, rid storage.RID, before []byte) error {
	if err := t.mvWrite(rel, row, before); err != nil {
		return err
	}
	if _, err := t.d.log.Append(wal.Record{
		Txn: uint64(t.id), Type: wal.RecDelete, Table: uint32(rel),
		RID: rid.Pack(), Before: before,
	}); err != nil {
		return err
	}
	if err := t.d.heaps[rel].DeleteHeld(rid); err != nil {
		return err
	}
	off := t.saveImage(before)
	t.undo = append(t.undo, undoOp{kind: undoDelete, rel: rel, rid: rid, off: off, n: len(before)})
	t.holds++
	return nil
}

// unhold lets go of the heap slots this transaction's deletes emptied, now
// that it has ended: committed, the slots are free; rolled back, their rows
// are back in them.
func (t *txn) unhold() {
	for i := 0; t.holds > 0; i++ {
		if op := &t.undo[i]; op.kind == undoDelete {
			t.d.heaps[op.rel].Unhold(op.rid)
			t.holds--
		}
	}
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
