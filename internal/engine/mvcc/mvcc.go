// Package mvcc is the engine's multi-version concurrency-control store:
// per-row version chains keyed by commit timestamp, giving transactions
// snapshot isolation (SI) on top of the existing heap files.
//
// The division of labor with package db is deliberate: the HEAP always
// holds the newest image of every row (committed or in flight under its
// writer's exclusive row lock), while this store holds the OLDER images a
// concurrent snapshot may still need, plus the commit-timestamp metadata
// that decides which image a given snapshot sees. A transaction reads the
// heap first and then asks Resolve-style Read whether that image is the
// one its snapshot should observe; if not, Read overwrites the caller's
// buffer with the visible version from the chain's arena.
//
//	visibility rule: a snapshot S observes the newest version with
//	commit-ts <= S; rows whose chain is absent are visible as-is (their
//	last writer committed at or below every live snapshot's S — the
//	pruning precondition below guarantees it).
//
// Writers keep using exclusive row locks (writes are lock-based, reads
// are version-based), so at most one transaction has a row "open" at a
// time; first-committer-wins validation happens at write time: pushing a
// version onto a chain whose latest commit is newer than the writer's
// snapshot fails with ErrConflict and the transaction aborts and retries.
//
// Commit timestamps are assigned under one short mutex so that
// publication is atomic with the clock advance: a snapshot S taken after
// the clock reads ts is guaranteed to observe every commit with
// commit-ts <= ts, across all of the committer's rows at once (no torn
// commit cuts). Chains are recycled through per-shard free lists, version
// images through per-chain arenas, and a committed transaction's chains
// are pruned once the low-watermark snapshot passes their commit
// timestamp — steady-state operation allocates nothing, preserving the
// engine's zero-alloc hot path.
//
// The store is sharded by key hash; every chain access takes only its
// shard mutex. Deliberate non-goals, documented for honesty: SI is
// per-store (per engine shard) — a cross-shard 2PC transaction gets one
// snapshot per shard, not a global one — and in plain SI mode write skew
// is ALLOWED, as at any snapshot-isolation level (db's anomaly battery
// witnesses it). A store built with NewSerializableStore closes the
// write-skew hole with Cahill-style SSI — SIREAD marks, rw-antidependency
// flags, dangerous-structure aborts — see ssi.go for the full protocol.
package mvcc

import (
	"errors"
	"sync"
	"sync/atomic"

	"tpccmodel/internal/engine/keytab"
)

// ErrConflict is the first-committer-wins validation failure: the row was
// committed by another transaction after this transaction's snapshot.
// The caller must abort and retry with a fresh snapshot.
var ErrConflict = errors.New("mvcc: write-write conflict (first committer wins)")

// Key identifies a logical row, mirroring lock.Key: the relation in Table
// and the engine's packed row key in Row.
type Key struct {
	Table uint32
	Row   uint64
}

// storeShards is the chain-map shard count (power of two). 256 shards
// keep shard-mutex contention negligible at any worker count the engine
// runs.
const storeShards = 256

// version is one historical image of a row. The image bytes live in the
// owning chain's arena at [off, off+n); absent marks a version in which
// the row did not exist (the before-image of an insert). Under SSI, rec
// and gen identify the transaction that CREATED this image, so a reader
// resolving below it knows whom its out-edge points at.
type version struct {
	ts     uint64
	off    int32
	n      int32
	absent bool
	rec    *ssiRec
	gen    uint64
}

// chain is the version history of one row. latestTS is the commit
// timestamp of the image currently in the heap; writer, when non-nil, is
// the transaction that has pushed an uncommitted heap image (it holds the
// row's exclusive lock). versions holds the still-reachable older images,
// oldest first. All fields are guarded by the owning shard's mutex.
// Under SSI a chain additionally carries the creator identity of the heap
// image (latestRec/latestGen, valid while that rec's gen matches). Only
// writes create chains: SIREAD marks live in the shard's mark list, not
// on chains.
type chain struct {
	k         Key
	latestTS  uint64
	writer    *Txn
	versions  []version
	arena     []byte
	next      *chain // shard free list
	latestRec *ssiRec
	latestGen uint64
}

// storeShard is one shard of the chain table. chains maps each key of the
// shard that has a live chain to it: one open-addressed table for every
// relation (package keytab), so a lookup is a multiply and, in the common
// case, one slot compare. Under SSI, marks lists the SIREAD marks on the
// shard's keys (ssi.go).
type storeShard struct {
	mu     sync.Mutex
	chains keytab.Table[chain]
	free   *chain
	marks  []ssiMark
	_      [24]byte // keep neighboring shards off one cache line
}

// get returns k's chain, or nil.
func (sh *storeShard) get(k Key) *chain { return sh.chains.Get(k.Table, k.Row) }

// put enters c under its key.
func (sh *storeShard) put(c *chain) { sh.chains.Put(c.k.Table, c.k.Row, c) }

// remove takes c out of the table and frees it.
func (sh *storeShard) remove(c *chain) {
	sh.chains.Delete(c.k.Table, c.k.Row)
	sh.release(c)
}

// alloc enters an empty chain for k, reusing a freed one if it can.
func (sh *storeShard) alloc(k Key) *chain {
	c := sh.free
	if c != nil {
		sh.free = c.next
		c.next = nil
	} else {
		c = &chain{}
	}
	c.k = k
	c.latestTS = 0
	c.writer = nil
	c.versions = c.versions[:0]
	c.arena = c.arena[:0]
	c.latestRec = nil
	c.latestGen = 0
	sh.put(c)
	return c
}

func (sh *storeShard) release(c *chain) {
	c.writer = nil
	c.versions = c.versions[:0]
	c.arena = c.arena[:0]
	c.latestRec = nil
	c.latestGen = 0
	c.next = sh.free
	sh.free = c
}

// Txn is the per-transaction MVCC state, embedded by value in the
// engine's transaction scratch so beginning a transaction allocates
// nothing. ts is the snapshot timestamp; commitTS publishes the commit
// decision to concurrent readers before the per-chain flip; prev/next
// link the transaction into the store's active-snapshot registry; chains
// lists the chains this transaction has pushed uncommitted versions onto.
// Under SSI the transaction additionally borrows a pooled conflict-flag
// rec for this life (rec/recGen), and marked records that it has left a
// SIREAD mark, which makes even a read-only commit draw a timestamp.
type Txn struct {
	ts       uint64
	commitTS atomic.Uint64
	prev     *Txn
	next     *Txn
	chains   []*chain
	rec      *ssiRec
	recGen   uint64
	marked   bool
}

// Snapshot returns the transaction's snapshot timestamp.
func (t *Txn) Snapshot() uint64 { return t.ts }

// Writes returns how many distinct rows the transaction has versioned.
func (t *Txn) Writes() int { return len(t.chains) }

// retireEntry defers pruning of one committed chain until the low
// watermark passes its commit timestamp. It holds the key, never the
// chain pointer: the chain may be freed and recycled for another key by a
// different ring in the meantime.
type retireEntry struct {
	k  Key
	ts uint64
}

// RetireSet is a caller-owned ring of committed (key, commit-ts) pairs
// awaiting pruning. Sessions keep one per transaction slot and pass it to
// Begin, which prunes the entries the watermark has passed; the slice is
// reused, so steady-state pruning allocates nothing.
type RetireSet struct {
	entries []retireEntry
}

// Len returns the number of chains still awaiting pruning.
func (r *RetireSet) Len() int { return len(r.entries) }

// Store is a sharded MVCC version-chain store with a global commit clock
// and an active-snapshot registry.
type Store struct {
	shards [storeShards]storeShard

	// commitMu makes commit-timestamp assignment atomic with publication:
	// {ts = clock+1; txn.commitTS = ts; clock = ts} is one critical
	// section, so any snapshot >= ts observes the commit on every row.
	commitMu sync.Mutex
	clock    atomic.Uint64

	// regMu guards the active-transaction list (the watermark source)
	// and, under SSI, the rec pool and committed-rec reap queue.
	regMu  sync.Mutex
	active *Txn

	// SSI state (ssi.go): recFree pools conflict-flag recs; commRecs is
	// the committed-rec reap queue in commit order with commHead the
	// consumed prefix.
	ssi      bool
	recFree  *ssiRec
	commRecs []*ssiRec
	commHead int

	conflicts atomic.Int64
	ssiAborts atomic.Int64
}

// NewStore returns an empty store with the commit clock at zero.
func NewStore() *Store {
	return &Store{}
}

// NewSerializableStore returns a store running serializable snapshot
// isolation: plain SI plus SIREAD marks, rw-antidependency tracking,
// and dangerous-structure aborts (ErrSSI). Callers additionally must
// run PreCommit before deciding any commit.
func NewSerializableStore() *Store {
	s := NewStore()
	s.ssi = true
	return s
}

// shardOf hashes a key to its shard: keytab.Hash's bits from 32 up, which
// the shard's chain table does not read (package keytab).
func (s *Store) shardOf(k Key) *storeShard {
	return &s.shards[(keytab.Hash(k.Table, k.Row)>>32)&(storeShards-1)]
}

// Clock returns the last assigned commit timestamp.
func (s *Store) Clock() uint64 { return s.clock.Load() }

// Conflicts returns the number of first-committer-wins rejections.
func (s *Store) Conflicts() int64 { return s.conflicts.Load() }

// Chains returns the number of live (unpruned) chains, for leak checks.
func (s *Store) Chains() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.chains.Len()
		sh.mu.Unlock()
	}
	return n
}

// Begin gives t a fresh snapshot and registers it as active. The
// watermark (minimum active snapshot, or the clock when none) is computed
// under the same registry lock, and ret's prunable entries are retired
// against it — every transaction start pays down a little garbage, which
// is what keeps steady-state chain counts flat without a vacuum thread.
func (s *Store) Begin(t *Txn, ret *RetireSet) {
	s.regMu.Lock()
	wm := s.clock.Load()
	for a := s.active; a != nil; a = a.next {
		if a.ts < wm {
			wm = a.ts
		}
	}
	t.ts = s.clock.Load()
	t.commitTS.Store(0)
	t.chains = t.chains[:0]
	t.prev = nil
	t.next = s.active
	if s.active != nil {
		s.active.prev = t
	}
	s.active = t
	if s.ssi {
		// Reap first, then borrow: a rec freed by the reap can serve this
		// very transaction.
		s.reapCommittedLocked(wm)
		t.rec = s.acquireRecLocked()
		t.recGen = t.rec.gen.Load()
		t.marked = false
	}
	s.regMu.Unlock()
	if ret != nil && len(ret.entries) > 0 {
		s.prune(ret, wm)
	}
}

// prune frees the chains in ret whose commit timestamp the watermark has
// passed. A chain may be freed only when no writer holds it and its
// latest commit is at or below the watermark: every live and future
// snapshot then sees the heap image, so the chain carries no information.
// An entry is consumed when its chain is freed, already gone, or has
// moved past the entry's commit (the newer commit's own retire entry
// covers it); an entry whose chain is pinned by an uncommitted writer is
// RE-QUEUED — if that writer aborts, this entry is the only one left that
// can ever retire the chain. SIREAD marks do not pin chains: they live in
// the shard's mark list, keyed by row, and outlast the chain if need be.
func (s *Store) prune(ret *RetireSet, wm uint64) {
	kept := ret.entries[:0]
	for _, e := range ret.entries {
		if e.ts > wm {
			kept = append(kept, e)
			continue
		}
		sh := s.shardOf(e.k)
		sh.mu.Lock()
		c := sh.get(e.k)
		switch {
		case c == nil || c.latestTS > e.ts:
			// Freed already, or a newer commit owns retiring it.
		case c.writer != nil:
			kept = append(kept, e)
		default:
			// No writer, and latestTS <= e.ts <= wm:
			// every live and future snapshot sees the heap image.
			sh.remove(c)
		}
		sh.mu.Unlock()
	}
	ret.entries = kept
}

// Read resolves the row's visibility for t's snapshot. The caller has
// already read the CURRENT heap image into buf (heapLive=false when the
// heap has no record — a deleted or not-yet-inserted row). Read returns
// whether the row is live at the snapshot; when the heap image is not the
// visible one it overwrites buf with the visible version's bytes. buf may
// hold a prefix of the image (a projected read): then only the version's
// first len(buf) bytes are copied, and nothing past len(buf) is written.
//
// The heap read and this resolution are not atomic, but the ordering
// protocol makes the pair safe: a writer sets chain.writer under the
// shard mutex BEFORE its first heap mutation of the row and clears it
// (commit flip or abort pop) only AFTER the heap holds the final image —
// so whenever Read decides "the heap image is the visible one", the heap
// image cannot have been mid-flight. Per-record torn reads are impossible
// separately: heap record access is serialized by the buffer frame lock.
// Under SSI, Read additionally leaves t's SIREAD mark on the key (absent
// rows included) and, whenever it resolves BELOW the heap image, installs
// an out-edge to each newer image's creator. Read itself never fails: an
// edge that makes t the pivot dooms it in place, surfacing at Write or
// PreCommit.
func (s *Store) Read(t *Txn, k Key, heapLive bool, buf []byte) bool {
	sh := s.shardOf(k)
	sh.mu.Lock()
	c := sh.get(k)
	if s.ssi && (c == nil || c.writer != t) {
		s.siread(t, sh, k)
	}
	if c == nil {
		sh.mu.Unlock()
		return heapLive
	}
	if w := c.writer; w != nil {
		if w == t {
			// Own uncommitted write: the heap holds it.
			sh.mu.Unlock()
			return heapLive
		}
		if cts := w.commitTS.Load(); cts != 0 && cts <= t.ts {
			// Writer committed at or before our snapshot; its heap image
			// is the visible version even though the flip hasn't landed.
			sh.mu.Unlock()
			return heapLive
		}
	} else if c.latestTS <= t.ts {
		sh.mu.Unlock()
		return heapLive
	}
	// The heap image is too new for this snapshot: walk versions newest
	// to oldest for the first one at or below it. Every image we skip
	// over was created by a transaction concurrent with (or newer than)
	// this snapshot: under SSI each creator gets an out-edge from t.
	if s.ssi {
		if w := c.writer; w != nil {
			s.readEdge(t, w.rec, w.recGen)
		} else {
			s.readEdge(t, c.latestRec, c.latestGen)
		}
	}
	for i := len(c.versions) - 1; i >= 0; i-- {
		v := c.versions[i]
		if v.ts > t.ts {
			if s.ssi {
				s.readEdge(t, v.rec, v.gen)
			}
			continue
		}
		if v.absent {
			sh.mu.Unlock()
			return false
		}
		copy(buf, c.arena[v.off:v.off+v.n])
		sh.mu.Unlock()
		return true
	}
	// No version at or below the snapshot: the row did not exist then
	// (the oldest version of a chain is the image that predates its first
	// chained write, so running out of versions means the chain was
	// created by an insert newer than the snapshot).
	sh.mu.Unlock()
	return false
}

// Write records t's intent to overwrite the row, validating first
// committer wins and preserving the current image (before; nil for an
// insert) as a version. The caller must hold the row's exclusive lock and
// must apply its heap mutation only after Write returns nil. Writing a
// row the transaction already wrote is a no-op (the chain already holds
// the pre-transaction image).
//
// Under SSI, Write is where a doomed transaction finds out (ErrSSI for
// a pending abort a Read deferred), and where in-edges land: after FCW
// validation passes, every live concurrent SIREAD mark on the key is an
// rw-antidependency from its reader into t. ErrSSI returns leave the
// chain unmodified.
func (s *Store) Write(t *Txn, k Key, before []byte) error {
	if s.ssi && t.rec.state.Load()&ssiAbortPending != 0 {
		s.ssiAborts.Add(1)
		return ErrSSI
	}
	sh := s.shardOf(k)
	sh.mu.Lock()
	// A row with no chain has no writer and no commit newer than any
	// snapshot; its chain is created only once the write is allowed.
	c := sh.get(k)
	if c != nil && c.writer == t {
		sh.mu.Unlock()
		return nil
	}
	if c != nil && (c.writer != nil || c.latestTS > t.ts) {
		// writer != nil cannot happen under the exclusive-lock protocol
		// (the previous writer flips or pops before releasing); treated
		// as a conflict rather than a panic so a protocol bug degrades to
		// aborts instead of corruption.
		sh.mu.Unlock()
		s.conflicts.Add(1)
		return ErrConflict
	}
	if s.ssi {
		abort := false
		kept := sh.marks[:0]
		for _, m := range sh.marks {
			if m.rec.gen.Load() != m.gen {
				continue
			}
			kept = append(kept, m)
			r := m.rec
			if m.k != k || r == t.rec || abort {
				continue
			}
			if e := r.endTS.Load(); e != 0 && e <= t.ts {
				// Reader committed at or before our snapshot: not
				// concurrent, its read saw a final state.
				continue
			}
			abort = s.applyEdge(r, t.rec, t.rec)
		}
		sh.marks = kept
		if abort {
			sh.mu.Unlock()
			s.ssiAborts.Add(1)
			return ErrSSI
		}
	}
	if c == nil {
		c = sh.alloc(k)
	}
	off := int32(len(c.arena))
	c.arena = append(c.arena, before...)
	c.versions = append(c.versions, version{
		ts: c.latestTS, off: off, n: int32(len(before)), absent: before == nil,
		rec: c.latestRec, gen: c.latestGen,
	})
	c.writer = t
	sh.mu.Unlock()
	t.chains = append(t.chains, c)
	return nil
}

// Commit assigns t a commit timestamp (0 is returned for read-only
// transactions), publishes it, flips t's chains to the new timestamp,
// queues them on ret for later pruning, and deregisters the snapshot.
// The caller must invoke Commit only after the commit is decided (WAL
// record appended, with PreCommit already passed under SSI) and before
// releasing row locks.
//
// Under SSI even a read-only transaction that left marks draws a clock
// tick: its endTS is what decides, against later writers' snapshots,
// whether those marks are still concurrent — and what lets the reap
// queue release its rec once the watermark passes.
func (s *Store) Commit(t *Txn, ret *RetireSet) uint64 {
	var ts uint64
	wrote := len(t.chains) > 0
	if wrote || (s.ssi && t.marked) {
		s.commitMu.Lock()
		ts = s.clock.Load() + 1
		t.commitTS.Store(ts)
		s.clock.Store(ts)
		if s.ssi {
			t.rec.endTS.Store(ts)
		}
		s.commitMu.Unlock()
		for _, c := range t.chains {
			sh := s.shardOf(c.k)
			sh.mu.Lock()
			c.latestTS = ts
			if s.ssi {
				c.latestRec = t.rec
				c.latestGen = t.recGen
			}
			c.writer = nil
			sh.mu.Unlock()
			if ret != nil {
				ret.entries = append(ret.entries, retireEntry{k: c.k, ts: ts})
			}
		}
		t.chains = t.chains[:0]
	}
	// A rec that drew an endTS joins the reap queue (its marks and flags
	// stay live until the watermark passes); one that touched nothing is
	// released immediately.
	s.endTxn(t, ts != 0)
	if !wrote {
		ts = 0
	}
	return ts
}

// Abort pops the versions t pushed (each is the newest on its chain and
// the tail of its arena, since the row lock excluded other writers),
// clears the writer marks, and deregisters the snapshot. The caller must
// restore the heap before-images BEFORE calling Abort: while writer is
// set, readers resolve through versions, so the heap's intermediate
// states are never observed.
//
// Under SSI the transaction's rec is released immediately: the gen bump
// stales its marks and voids its edges.
func (s *Store) Abort(t *Txn) {
	for _, c := range t.chains {
		sh := s.shardOf(c.k)
		sh.mu.Lock()
		if c.writer == t {
			v := c.versions[len(c.versions)-1]
			c.versions = c.versions[:len(c.versions)-1]
			c.arena = c.arena[:v.off]
			c.writer = nil
			if len(c.versions) == 0 && c.latestTS == 0 {
				// The chain was created by this transaction: nothing
				// left.
				sh.remove(c)
			}
		}
		sh.mu.Unlock()
	}
	t.chains = t.chains[:0]
	s.endTxn(t, false)
}

func (s *Store) endTxn(t *Txn, keepRec bool) {
	s.regMu.Lock()
	if t.prev != nil {
		t.prev.next = t.next
	} else if s.active == t {
		s.active = t.next
	}
	if t.next != nil {
		t.next.prev = t.prev
	}
	t.prev, t.next = nil, nil
	if s.ssi && t.rec != nil {
		if keepRec {
			s.commRecs = append(s.commRecs, t.rec)
		} else {
			s.releaseRecLocked(t.rec)
		}
		t.rec = nil
	}
	s.regMu.Unlock()
}

// Reset drops every chain and active registration, keeping the commit
// clock (timestamps stay monotonic across recoveries). Only valid on a
// quiesced store — crash recovery rebuilds the heap to committed state,
// after which no chain carries information.
func (s *Store) Reset() {
	s.regMu.Lock()
	s.active = nil
	for i := s.commHead; i < len(s.commRecs); i++ {
		s.releaseRecLocked(s.commRecs[i])
		s.commRecs[i] = nil
	}
	s.commRecs = s.commRecs[:0]
	s.commHead = 0
	s.regMu.Unlock()
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.chains.Clear(sh.release)
		clear(sh.marks)
		sh.marks = sh.marks[:0]
		sh.mu.Unlock()
	}
}
