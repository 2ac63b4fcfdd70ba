// Serializable snapshot isolation (Cahill/Fekete-style) on top of the
// SI store. The construction follows "Serializable Isolation for
// Snapshot Databases" (SIGMOD 2008): every SI anomaly contains a PIVOT
// transaction with both an incoming and an outgoing rw-antidependency
// edge to/from transactions concurrent with it, so aborting every
// would-be pivot makes the history serializable.
//
// The tracking is the paper's conservative two-flag approximation:
//
//   - SIREAD marks: each snapshot read leaves a key-level mark (ssiMark)
//     in its shard's mark list, beside the chain map rather than on a
//     chain, so a read of a row with no versions creates no chain. Marks
//     survive COMMIT — a committed reader can still be the source of an
//     in-edge to a later writer — and go stale only when the watermark
//     passes the reader's commit, at which point no concurrent writer can
//     still exist; the next access to the shard drops them.
//   - rw-edges: a reader that resolves BELOW the heap image gained an
//     out-edge to each newer image's creator (Store.Read); a writer
//     that overwrites a row carrying live concurrent marks gains an
//     in-edge from each marker (Store.Write, after FCW validation).
//   - dangerous structure: installing an edge that gives either
//     endpoint both flags triggers an abort. The acting transaction is
//     preferred as the victim — its edges die with it, so the other
//     side stays clean; a pivot that is already committed or latched
//     for commit cannot be aborted, so the acting transaction yields.
//
// Flags are sticky (edges are never un-counted when the far side
// aborts or falls behind the watermark), which is the deliberate
// source of false positives: an abort fires for every dangerous
// structure, not every actual cycle. TPC-C itself is serializable
// under plain SI (Fekete et al., TODS 2005), so on this engine's own
// workload EVERY ssi abort is a false positive — BENCH_cc.json reports
// the rate as exactly that.
//
// Marks are key-level only: predicate (index-range) anti-dependencies
// are out of scope, same as the row-granularity FCW they extend.
package mvcc

import (
	"errors"
	"sync/atomic"
)

// ErrSSI is the dangerous-structure abort: committing this transaction
// could close an rw-antidependency cycle. The caller must abort and
// retry with a fresh snapshot. Nothing bounds how often a retry fails
// again: one SmallBank Amalgamate has been seen aborted as a pivot on
// 1 000 immediate retries in a row while others committed. A retry that
// cannot fail on the same conflicting transactions is ROADMAP item 16.
var ErrSSI = errors.New("mvcc: rw-antidependency pivot (serialization failure)")

// ssiRec conflict-flag state bits.
const (
	ssiIn           uint32 = 1 << iota // someone has an rw-edge INTO this txn
	ssiOut                             // this txn has an rw-edge OUT to someone
	ssiAbortPending                    // doomed by a pivot check; must not commit
	ssiPrepared                        // latched for commit (2PC prepare or PreCommit); no longer abortable
)

// ssiRec is the conflict-flag record of one transaction LIFE. It is
// pooled: recs outlive their transaction (a committed reader's flags
// and marks stay meaningful until the watermark passes its commit), so
// they cannot live in the Txn scratch itself. gen is bumped on every
// release; a mark or version that captured an older gen is stale and
// ignored. All cross-thread fields are atomics — recs are read under
// whatever shard mutex the reader holds, which orders nothing between
// different shards.
type ssiRec struct {
	gen   atomic.Uint64
	state atomic.Uint32
	endTS atomic.Uint64 // commit timestamp; 0 while active or aborted
	next  *ssiRec       // store free list, guarded by regMu
}

// ssiMark is one transaction's SIREAD mark on a key. The gen snapshot
// makes the mark self-invalidating: once the rec is released (abort, or
// watermark passed its commit) the gens disagree and the mark is dead
// weight that the next scan of its shard compacts away.
type ssiMark struct {
	k   Key
	rec *ssiRec
	gen uint64
}

// orState is a CAS or-loop (keeps the module's language level below the
// atomic.Uint32.Or API).
func orState(v *atomic.Uint32, bits uint32) {
	for {
		old := v.Load()
		if old&bits == bits || v.CompareAndSwap(old, old|bits) {
			return
		}
	}
}

// SSI reports whether the store runs serializable snapshot isolation.
func (s *Store) SSI() bool { return s.ssi }

// SSIAborts returns the number of dangerous-structure aborts.
func (s *Store) SSIAborts() int64 { return s.ssiAborts.Load() }

// acquireRecLocked pops or allocates a rec for a new transaction life.
// gen is NOT bumped here — it was bumped at release, so marks from the
// previous life are already stale. Caller holds regMu.
func (s *Store) acquireRecLocked() *ssiRec {
	r := s.recFree
	if r != nil {
		s.recFree = r.next
		r.next = nil
	} else {
		r = &ssiRec{}
	}
	r.state.Store(0)
	r.endTS.Store(0)
	return r
}

// releaseRecLocked ends a rec's life: the gen bump atomically
// invalidates every mark and version reference to it. Caller holds
// regMu.
func (s *Store) releaseRecLocked(r *ssiRec) {
	r.gen.Add(1)
	r.endTS.Store(0)
	r.next = s.recFree
	s.recFree = r
}

// reapCommittedLocked releases committed recs the watermark has passed:
// no active snapshot predates their commit, so no concurrent writer can
// still arrive and none of their edges can matter again. commRecs is
// append-ordered by commit (modulo a benign publication race that can
// only delay a release), so a head-first sweep suffices. Caller holds
// regMu.
func (s *Store) reapCommittedLocked(wm uint64) {
	for s.commHead < len(s.commRecs) {
		r := s.commRecs[s.commHead]
		if r.endTS.Load() > wm {
			break
		}
		s.commRecs[s.commHead] = nil
		s.commHead++
		s.releaseRecLocked(r)
	}
	if s.commHead > 0 && s.commHead*2 >= len(s.commRecs) {
		n := copy(s.commRecs, s.commRecs[s.commHead:])
		for i := n; i < len(s.commRecs); i++ {
			s.commRecs[i] = nil
		}
		s.commRecs = s.commRecs[:n]
		s.commHead = 0
	}
}

// siread records t's SIREAD mark on k in k's shard sh (once per key per
// transaction), compacting the shard's stale marks on the way through.
// Caller holds sh.mu and has already excluded a row t itself writes (FCW
// plus its own in-edge surface cover that one).
func (s *Store) siread(t *Txn, sh *storeShard, k Key) {
	kept := sh.marks[:0]
	own := false
	for _, m := range sh.marks {
		if m.rec.gen.Load() != m.gen {
			continue
		}
		if m.rec == t.rec && m.k == k {
			own = true
		}
		kept = append(kept, m)
	}
	if !own {
		kept = append(kept, ssiMark{k: k, rec: t.rec, gen: t.recGen})
		t.marked = true
	}
	sh.marks = kept
}

// applyEdge installs the rw-antidependency reader→writer and runs the
// dangerous-structure checks. It returns true when the ACTING
// transaction (always one of the two endpoints) must abort, in which
// case the edge was NOT installed: an aborted transaction's edges are
// void, so suppressing them keeps the surviving side's flags clean —
// this is what lets one victim resolve a two-transaction skew.
//
// When the OTHER endpoint becomes a pivot: if it is still active it is
// doomed via abortPending, checked under commitMu so the marking cannot
// race its PreCommit latch; if it is already committed or latched, the
// acting transaction yields instead.
func (s *Store) applyEdge(reader, writer, acting *ssiRec) bool {
	if reader == writer {
		return false
	}
	if acting == reader && acting.state.Load()&ssiIn != 0 {
		return true
	}
	if acting == writer && acting.state.Load()&ssiOut != 0 {
		return true
	}
	orState(&reader.state, ssiOut)
	orState(&writer.state, ssiIn)
	other := reader
	if other == acting {
		other = writer
	}
	if other.state.Load()&(ssiIn|ssiOut) == ssiIn|ssiOut {
		s.commitMu.Lock()
		if other.endTS.Load() != 0 || other.state.Load()&ssiPrepared != 0 {
			s.commitMu.Unlock()
			return true
		}
		orState(&other.state, ssiAbortPending)
		s.commitMu.Unlock()
	}
	return false
}

// readEdge installs t → creator for a newer-image creator t's snapshot
// read skipped over. Read itself never fails: if the edge makes t the
// pivot, t is doomed in place and the abort surfaces at its next Write
// or at PreCommit. The gen check filters creators whose rec was
// recycled (only reachable via chain.latestRec after a Reset-scale
// event; live creators of too-new images are pinned by the watermark).
func (s *Store) readEdge(t *Txn, rec *ssiRec, gen uint64) {
	if rec == nil || rec == t.rec || rec.gen.Load() != gen {
		return
	}
	if s.applyEdge(t.rec, rec, t.rec) {
		orState(&t.rec.state, ssiAbortPending)
	}
}

// PreCommit validates t under SSI and must be called BEFORE the commit
// is made durable (the WAL append, or the 2PC prepare vote): a doomed
// or pivot transaction must abort instead. On success the rec is
// latched (ssiPrepared) under commitMu, closing the race where a
// concurrent pivot check marks a transaction that is already past its
// validation — after the latch, applyEdge aborts the acting side
// instead. Under plain SI this is a no-op. PreCommit must be called at
// most once per transaction (db tracks that); after a nil return the
// transaction MUST proceed to Commit or Abort.
func (s *Store) PreCommit(t *Txn) error {
	if !s.ssi {
		return nil
	}
	s.commitMu.Lock()
	st := t.rec.state.Load()
	if st&ssiAbortPending != 0 || st&(ssiIn|ssiOut) == ssiIn|ssiOut {
		s.commitMu.Unlock()
		s.ssiAborts.Add(1)
		return ErrSSI
	}
	orState(&t.rec.state, ssiPrepared)
	s.commitMu.Unlock()
	return nil
}
