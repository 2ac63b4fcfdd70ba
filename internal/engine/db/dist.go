package db

import (
	"fmt"
	"slices"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/wal"
)

// This file is the engine's two-phase-commit surface. A distributed
// transaction is a home branch on its coordinator shard plus participant
// branches on remote shards, each an ordinary strict-2PL transaction on
// its own DB instance. The protocol is presumed abort:
//
//   - participant branches PREPARE (a forced wal.RecPrepare carrying the
//     gid), after which they survive any crash as in-doubt state;
//   - the home branch never prepares — its forced commit record, carrying
//     the gid, IS the global decision record;
//   - a participant commit/abort record also carries the gid, closing the
//     branch;
//   - a recovering participant finds prepared-but-undecided branches,
//     rolls their rows back, re-locks them exclusively,
//     and asks the coordinator's outcome map (GIDOutcome). No durable
//     decision at the coordinator means abort — so abort paths never
//     require logging, only commit decisions do.

// Branch is one open branch of a distributed transaction: a local
// procedure body (or its share of one) run on a pooled Session and left
// open, so a coordinator can drive prepare/commit/abort across shards. It
// holds the session until it ends — Commit succeeds, Abort, Forsake, or a
// failed Prepare — and must not be used afterwards.
type Branch struct {
	s   *Session // nil once the branch has ended
	gid uint64
}

// beginBranch starts a branch on a pooled session: like any transaction's,
// its txn value's scratch and (under mvcc) retire ring are recycled only
// by the next transaction that begins on the same value. The branch locks
// as lock.Global(gid), so a gid has at most one branch per instance, open
// or in doubt: the lock table knows a grant by its owner's id, so a second
// would be granted the first's rows and whichever ended first would
// release the other's locks.
func (d *DB) beginBranch(gid uint64) *Branch {
	d.distMu.Lock()
	if d.hasBranchLocked(gid) {
		d.distMu.Unlock()
		panic(fmt.Sprintf("db: gid %#x already has a branch on this instance", gid))
	}
	if d.branches == nil {
		d.branches = make(map[uint64]struct{})
	}
	d.branches[gid] = struct{}{}
	d.distMu.Unlock()
	s := d.getSession()
	t := s.begin()
	t.held.Begin(lock.Global(gid))
	return &Branch{s: s, gid: gid}
}

// HasBranch reports whether gid has a branch on this instance: one begun
// and not yet ended, or one the last recovery left in doubt.
func (d *DB) HasBranch(gid uint64) bool {
	d.distMu.Lock()
	defer d.distMu.Unlock()
	return d.hasBranchLocked(gid)
}

// hasBranchLocked is HasBranch for callers holding d.distMu.
func (d *DB) hasBranchLocked(gid uint64) bool {
	if _, open := d.branches[gid]; open {
		return true
	}
	return d.inDoubtLocked(gid) != nil
}

// inDoubtLocked returns gid's in-doubt branch, or nil. Callers hold
// d.distMu.
func (d *DB) inDoubtLocked(gid uint64) *inDoubtBranch {
	for _, b := range d.inDoubt {
		if b.GID == gid {
			return b
		}
	}
	return nil
}

// opened ends a …Begin entry point whose body returned err. On failure the
// branch is rolled back (ErrAborted = retry) and its session handed back:
// an error from Begin leaves nothing to finish.
func (b *Branch) opened(err error) (*Branch, error) {
	if err != nil {
		err = b.s.t.fail(err)
		b.end()
		return nil, err
	}
	return b, nil
}

// end closes the branch and hands its session back to the pool.
func (b *Branch) end() {
	d := b.s.d
	d.distMu.Lock()
	delete(d.branches, b.gid)
	d.distMu.Unlock()
	d.putSession(b.s)
	b.s = nil
}

// GID returns the branch's global transaction id.
func (b *Branch) GID() uint64 { return b.gid }

// Prepare forces a prepare record: the branch's writes and its vote
// survive any crash after this returns. A failed force aborts the branch
// (it voted no) and returns the error.
//
// Under CCSSI the serializability validation runs HERE, not at commit: a
// prepared branch has voted yes and must be able to commit whatever the
// coordinator decides, so this is the last moment the branch may abort
// itself. PreCommit also latches the transaction's conflict record —
// from here on, a concurrent transaction that would complete a dangerous
// structure through this branch aborts itself instead. Cross-shard
// serializability is still only per-shard (each shard validates its own
// edge graph; no global cycle detection), the same honesty caveat as the
// per-shard snapshot cut.
func (b *Branch) Prepare() error {
	t := &b.s.t
	err := t.validate()
	if err != nil {
		err = ErrSSIAbort
	} else {
		_, err = t.d.log.Append(wal.Record{Txn: uint64(t.id), Type: wal.RecPrepare, RID: b.gid})
	}
	if err != nil {
		_ = t.rollbackWith(b.gid)
		b.end()
	}
	return err
}

// Commit forces the branch's commit record (carrying the gid) and
// releases its locks. On the home branch this record is the global
// decision. A failed ssi validation (ErrSSIAbort) or force leaves the
// branch open — locks held, undo intact, session kept — so the caller may
// retry, abort, or (device dead) Forsake.
func (b *Branch) Commit() error {
	if err := b.s.t.commitWith(b.gid); err != nil {
		return err
	}
	b.end()
	return nil
}

// Abort rolls the branch back: undo in reverse, an abort record carrying
// the gid (best-effort — presumed abort needs no durable decision), and
// lock release.
func (b *Branch) Abort() error {
	err := b.s.t.rollbackWith(b.gid)
	b.end()
	return err
}

// Forsake abandons the branch without logging or undo: locks are
// released and the in-memory undo list is dropped. Only valid when the
// shard's device is dead — the durable log then owns the branch's fate
// (in-doubt if prepared, presumed abort otherwise) and crash recovery
// will restore a correct state. On a live device Forsake would corrupt:
// other transactions could overwrite rows recovery later re-applies.
func (b *Branch) Forsake() {
	t := &b.s.t
	t.undo = t.undo[:0]
	if t.d.ccMVCC {
		// Drop the chain state too (pop versions, clear writer marks,
		// deregister the snapshot); the dead device's recovery path
		// resets the whole store anyway.
		t.d.mvcc.Abort(&t.mv)
	}
	t.d.locks.Release(&t.held)
	b.end()
}

// setOutcome records a gid decision in the coordinator's outcome map.
func (d *DB) setOutcome(gid uint64, committed bool) {
	d.distMu.Lock()
	if d.outcomes == nil {
		d.outcomes = make(map[uint64]bool)
	}
	d.outcomes[gid] = committed
	d.distMu.Unlock()
}

// GIDOutcome reports this coordinator's decision for gid. known=false
// means no decision is recorded — under presumed abort the caller must
// treat that as aborted (the gid never reached its decision record).
func (d *DB) GIDOutcome(gid uint64) (committed, known bool) {
	d.distMu.Lock()
	defer d.distMu.Unlock()
	committed, known = d.outcomes[gid]
	return committed, known
}

// inDoubtBranch is a branch recovery found prepared and undecided: its
// log records, and the Owner that holds its rows' exclusive locks until
// ResolveInDoubt settles it.
type inDoubtBranch struct {
	wal.InDoubtTxn
	held lock.Owner
}

// InDoubt returns the in-doubt branches the most recent recovery
// surfaced, in prepare order, less those resolved since.
func (d *DB) InDoubt() []wal.InDoubtTxn {
	d.distMu.Lock()
	defer d.distMu.Unlock()
	out := make([]wal.InDoubtTxn, len(d.inDoubt))
	for i, b := range d.inDoubt {
		out[i] = b.InDoubtTxn
	}
	return out
}

// lockKeyFor derives the logical row-lock key a log record's row maps to.
// An update record carries a span, not the key columns, so the key is read
// off the row itself: recovery has rolled it back, and no update changes a
// key. Only the relations participant branches write need translating.
func lockKeyFor(a wal.Applier, r wal.Record) (lock.Key, error) {
	img := r.Before
	switch r.Type {
	case wal.RecInsert:
		img = r.After
	case wal.RecUpdate:
		var err error
		if img, err = a.Read(r.RID); err != nil {
			return lock.Key{}, err
		}
	}
	if img == nil {
		return lock.Key{}, fmt.Errorf("db: record %s table %d rid %d has no row", r.Type, r.Table, r.RID)
	}
	switch core.Relation(r.Table) {
	case core.Stock:
		var rec StockRec
		rec.Unmarshal(img)
		return lock.Key{Table: r.Table, Row: index.KeyWI(int64(rec.WID), int64(rec.IID))}, nil
	case core.Customer:
		var rec CustomerRec
		rec.Unmarshal(img)
		return lock.Key{Table: r.Table, Row: index.KeyWDC(int64(rec.WID), int64(rec.DID), int64(rec.ID))}, nil
	default:
		return lock.Key{}, fmt.Errorf("db: in-doubt record on unexpected relation %s",
			core.Relation(r.Table))
	}
}

// relockInDoubt re-acquires exclusive locks on every in-doubt branch's
// rows, so post-recovery traffic cannot write rows whose final state is
// still undecided. The locks are the branch's own, lock.Global(gid), as
// they were before the crash, held by its Owner. Runs on the quiesced
// recovery path: all locks are free, and acquisition cannot block.
func (d *DB) relockInDoubt(appliers map[uint32]wal.Applier, branches []*inDoubtBranch) error {
	for _, b := range branches {
		b.held.Begin(lock.Global(b.GID))
		for _, r := range b.Records {
			key, err := lockKeyFor(appliers[r.Table], r)
			if err != nil {
				return err
			}
			if err := d.locks.Lock(&b.held, key, lock.Exclusive); err != nil {
				return fmt.Errorf("db: re-locking in-doubt gid %d: %w", b.GID, err)
			}
		}
	}
	return nil
}

// ResolveInDoubt settles one in-doubt branch with the coordinator's
// decision. The decision record is forced BEFORE any row changes or lock
// is released, so a crash mid-resolution either leaves the branch in doubt
// (decision not durable, resolution re-runs) or recovers it as a normally
// committed or aborted transaction (decision durable; a commit's records
// are redone by recovery itself). Abort is the presumed path, and its rows
// are already rolled back, but its record is forced all the same: one lost
// to a later power loss would bring the branch back in doubt, its rows
// locked until it was resolved again.
func (d *DB) ResolveInDoubt(gid uint64, commit bool) error {
	d.distMu.Lock()
	b := d.inDoubtLocked(gid)
	d.distMu.Unlock()
	if b == nil {
		return fmt.Errorf("db: no in-doubt branch for gid %d", gid)
	}

	if commit {
		if _, err := d.log.Append(wal.Record{
			Txn: b.Txn, Type: wal.RecCommit, RID: gid,
		}); err != nil {
			return err
		}
		rebuild := false
		appliers := d.appliers()
		for _, r := range b.Records {
			if err := wal.Redo(appliers[r.Table], r); err != nil {
				return fmt.Errorf("db: re-applying gid %d: %w", gid, err)
			}
			if r.Type != wal.RecUpdate {
				// Inserts/deletes change index membership; participant
				// branches are update-only today, but stay correct if
				// that ever changes.
				rebuild = true
			}
		}
		if rebuild {
			if err := d.RebuildIndexes(); err != nil {
				return err
			}
		}
		d.commits.Add(1)
	} else {
		if _, err := d.log.Append(wal.Record{Txn: b.Txn, Type: wal.RecAbort, RID: gid}); err != nil {
			return err
		}
		d.aborts.Add(1)
	}
	d.locks.Release(&b.held)

	d.distMu.Lock()
	if i := slices.Index(d.inDoubt, b); i >= 0 {
		d.inDoubt = slices.Delete(d.inDoubt, i, i+1)
	}
	d.distMu.Unlock()
	return nil
}

// NewOrderHomeBegin executes the home-shard share of a distributed
// New-Order — the New-Order body minus the stock step of every line
// flagged Remote, which RemoteStockBegin runs on the supplier's shard —
// and returns the open branch for the coordinator to finish. An error
// means the branch already rolled back (ErrAborted = retry).
func (d *DB) NewOrderHomeBegin(gid uint64, in NewOrderInput) (*Branch, NewOrderResult, error) {
	b := d.beginBranch(gid)
	res, err := b.s.t.newOrder(in)
	b, err = b.opened(err)
	return b, res, err
}

// RemoteStockBegin executes a participant's share of a distributed
// New-Order: the stock step for the items this shard supplies. Each item's
// SupplyW must be a warehouse LOCAL to this instance; every update counts
// as remote (s_remote_cnt). The order-line rows live on the home shard.
// An error means the branch already rolled back.
func (d *DB) RemoteStockBegin(gid uint64, items []OrderItem) (*Branch, error) {
	b := d.beginBranch(gid)
	b.s.t.planStock(items)
	for _, it := range items {
		if err := b.s.t.orderStock(it, true); err != nil {
			return b.opened(err)
		}
	}
	return b.opened(nil)
}

// PaymentHomeBegin executes the home-shard share of a remote Payment:
// warehouse and district YTD updates plus the history insert. The
// customer update happens on the customer's shard (RemotePaymentBegin);
// custW/custD/custC are GLOBAL coordinates recorded in the history row.
func (d *DB) PaymentHomeBegin(gid uint64, in PaymentInput, custW, custD, custC int64) (*Branch, error) {
	b := d.beginBranch(gid)
	err := b.s.t.payHome(in)
	if err == nil {
		err = b.s.t.payHistory(in, custW, custD, custC)
	}
	return b.opened(err)
}

// RemotePaymentBegin executes the customer's-shard share of a remote
// Payment: payCustomer in LOCAL warehouse/district coordinates. It
// returns the resolved customer id — so the coordinator can record it in
// the home shard's history row — and the number of customer tuples the
// selection touched.
func (d *DB) RemotePaymentBegin(gid uint64, w, dist int64, byName bool, c, nameOrd int64, amountCents uint32) (*Branch, int64, int, error) {
	b := d.beginBranch(gid)
	b.s.t.planPayment(w, dist, byName, c, nameOrd)
	cid, selected, err := b.s.t.payCustomer(w, dist, byName, c, nameOrd, amountCents)
	b, err = b.opened(err)
	return b, cid, selected, err
}
