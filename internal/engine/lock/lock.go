// Package lock implements a strict two-phase-locking row lock manager with
// shared/exclusive modes, lock upgrade, and deadlock detection via a
// wait-for graph (victims get ErrDeadlock and are expected to abort and
// retry — the engine's transaction layer does this).
//
// The throughput model charges 1K instructions per lock released at commit
// (Section 5.1); this manager is the executable counterpart whose lock
// counts can be compared against the model's Table 4 lock visit counts.
// The model's per-lock CPU charge implicitly assumes lock operations scale
// with added processors, so the lock space is STRIPED: keys hash into
// independent stripes, each with its own mutex, lock table, and free
// pools. Uncontended grants on different keys in different stripes never
// touch a shared mutex or cache line. One stripe degenerates to the
// original single-table manager and is kept as the differential baseline
// (see striped_test.go).
//
// A stripe's lock table is a keytab.Table: open addressing keyed by
// (table, row) in place, with no Go map on the grant or release path. A
// key's stripe and its home slot in the stripe's table come from one
// Fibonacci hash (keytab.Hash), the stripe from bits 32 and up and the
// slot from the top bits, so the keys of one stripe spread over its whole
// table. A grant is one probe to find the key's state and, for a key no
// one holds, one more to enter it; the release that empties a state
// deletes it, shifting its probe chain back, so a table that empties is
// as fast as a new one.
//
// Deadlock detection is the one structurally global concern: a wait cycle
// can span stripes (txn A blocked in stripe 1 on a lock whose holder is
// blocked in stripe 2 on a lock A holds). The wait-for graph therefore
// lives behind a separate detector mutex that is touched ONLY by requests
// that actually block, and by the release of a transaction that blocked —
// the uncontended grant path and the release of a transaction that never
// waited do not take it, so detection cost scales with contention, not
// throughput.
//
// Bookkeeping is O(1) per request however many locks a transaction holds:
// an Acquire visits its transaction's bookkeeping shard once, and the held
// set it checks and records into is a hash index over the locks held.
// Neither path allocates in steady state. Granted locks are value entries
// in a pooled per-key state and per-transaction held sets are pooled; a
// request that blocks takes a pooled request record — its wake-up channel
// and its wait-for edge list are reused — and cycle detection walks the
// graph on scratch kept beside it.
//
// Concurrency contract: methods are safe for concurrent use across
// transactions. Calls for the SAME TxnID (its Acquires and its final
// ReleaseAll) must be issued serially — the engine runs each transaction
// on one goroutine, and the seed manager already relied on this (a
// ReleaseAll racing the same transaction's in-flight Acquire could leak a
// concurrently promoted grant).
package lock

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"time"

	"tpccmodel/internal/engine/keytab"
	"tpccmodel/internal/rng"
)

// Mode is a lock mode.
type Mode uint8

// Lock modes.
const (
	Shared Mode = iota
	Exclusive
)

// String names the mode.
func (m Mode) String() string {
	if m == Shared {
		return "S"
	}
	return "X"
}

// Key identifies a lockable resource: a table and a packed row key.
type Key struct {
	Table uint32
	Row   uint64
}

// String renders the key.
func (k Key) String() string { return fmt.Sprintf("t%d/%d", k.Table, k.Row) }

// ErrDeadlock is returned to the transaction chosen as the deadlock victim.
var ErrDeadlock = errors.New("lock: deadlock detected")

// ErrTimeout is returned when a bounded wait expires. It matches
// ErrDeadlock under errors.Is, because a timeout is how cross-engine
// deadlocks surface: each engine's wait-for graph is local, so a cycle
// spanning two engines (a distributed transaction holding locks on both)
// is invisible to either detector and can only be broken by timing the
// wait out and aborting, exactly like a deadlock victim.
var ErrTimeout = fmt.Errorf("lock: wait timed out: %w", ErrDeadlock)

// errCancelled resolves waits of a transaction being released.
var errCancelled = errors.New("lock: wait cancelled")

// TxnID identifies a transaction.
type TxnID uint64

// DefaultStripes is the stripe count NewManager uses. 64 comfortably
// exceeds any plausible worker count (contention on a stripe mutex needs
// two workers hashing to the same stripe at the same instant), while the
// per-stripe fixed cost (one mutex, a lock table that allocates nothing
// until its first grant, empty freelists) keeps the whole manager under a
// few KB. Must be a power of two.
const DefaultStripes = 64

// grant is one member of a key's granted group.
type grant struct {
	txn  TxnID
	mode Mode
}

// request is one BLOCKED lock request; immediately granted requests never
// materialize one. Records are pooled behind the detector mutex, which
// every blocked request takes anyway: a transaction waits on at most one
// lock at a time, so the pool never holds more than one per worker. ready
// (capacity 1) carries exactly one outcome per wait and is empty again when
// the waiter has received it; blockers backs the transaction's wait-for
// edges while it waits.
type request struct {
	txn      TxnID
	mode     Mode
	ready    chan error
	blockers []TxnID
}

// lockState is the per-key lock table entry: the granted group followed by
// FIFO waiters. Entries are pooled — emptied states go to the stripe's
// freelist instead of the garbage collector, so the steady-state acquire
// path does not allocate.
type lockState struct {
	granted []grant
	waiters []*request
}

// heldLock records one lock a transaction holds.
type heldLock struct {
	key  Key
	mode Mode
}

// minIndex is the index size of a new held set: room for eight locks
// before it first doubles.
const minIndex = 16

// txnLocks is the pooled per-transaction held set. keys lists the locks in
// the order they were taken, which is the order ReleaseAll drops them in.
// index is an open-addressed table of positions in keys (linear probing,
// position+1 so that zero is empty, the home slot taken from the top bits
// of keyHash); its length is a power of two at least twice len(keys), so a
// lookup costs O(1) however many locks are held. reset empties only the
// slots the keys occupy, so recycling a set costs O(locks) whatever size
// its index grew to, and the next owner reuses both slices: steady state
// allocates nothing.
//
// keys and index belong to the owning transaction: only its own Acquire
// and ReleaseAll write them, serially (see the package contract). waited
// is guarded by the shard mutex.
type txnLocks struct {
	keys  []heldLock
	index []int32
	// waited reports that the transaction has blocked on a lock, so it may
	// have wait-for edges and a waitKey entry for ReleaseAll to drop.
	waited bool
}

// find returns the position of key in tl.keys.
func (tl *txnLocks) find(key Key) (int, bool) {
	mask := uint64(len(tl.index) - 1)
	for s := tl.slot(key); ; s = (s + 1) & mask {
		p := tl.index[s]
		if p == 0 {
			return 0, false
		}
		if tl.keys[p-1].key == key {
			return int(p - 1), true
		}
	}
}

// slot is key's home slot in tl.index.
func (tl *txnLocks) slot(key Key) uint64 {
	return keyHash(key) >> (64 - bits.TrailingZeros(uint(len(tl.index))))
}

// record notes in tl that its transaction now holds key in mode: an
// upgrade of the key at position i rewrites its mode in place; a new key
// is appended and indexed, the index doubling first if it would pass half
// full.
func (tl *txnLocks) record(i int, upgrade bool, key Key, mode Mode) {
	if upgrade {
		tl.keys[i].mode = mode
		return
	}
	tl.keys = append(tl.keys, heldLock{key: key, mode: mode})
	if 2*len(tl.keys) <= len(tl.index) {
		tl.insert(len(tl.keys) - 1)
		return
	}
	tl.index = make([]int32, 2*len(tl.index))
	for i := range tl.keys {
		tl.insert(i)
	}
}

// insert enters keys[i] into the index.
func (tl *txnLocks) insert(i int) {
	mask := uint64(len(tl.index) - 1)
	s := tl.slot(tl.keys[i].key)
	for tl.index[s] != 0 {
		s = (s + 1) & mask
	}
	tl.index[s] = int32(i + 1)
}

// reset empties tl for the pool, clearing each key's slot.
func (tl *txnLocks) reset() {
	mask := uint64(len(tl.index) - 1)
	for i := range tl.keys {
		s := tl.slot(tl.keys[i].key)
		for tl.index[s] != int32(i+1) {
			s = (s + 1) & mask
		}
		tl.index[s] = 0
	}
	tl.keys = tl.keys[:0]
	tl.waited = false
}

// stripe is one shard of the lock table: a mutex, the states of the keys
// that hash here, a freelist for emptied states, and this stripe's share of
// the counters.
// The pad keeps hot stripes on separate cache lines so uncontended grants
// in different stripes do not false-share.
type stripe struct {
	mu     sync.Mutex
	locks  keytab.Table[lockState]
	lsFree []*lockState

	acquired  int64
	waits     int64
	deadlocks int64
	timeouts  int64

	_ [24]byte
}

// txnShard is one shard of the per-transaction state: which locks each
// transaction holds and the single key it is currently waiting on.
// Sharded by txn id so commits of different transactions do not serialize
// on one bookkeeping mutex.
type txnShard struct {
	mu sync.Mutex
	// held[txn] is the pooled list of keys the transaction holds.
	held map[TxnID]*txnLocks
	// waitKey[txn] is the single key txn is currently queued on (a
	// transaction blocks on at most one Acquire at a time), so release
	// can cancel the wait without scanning the whole lock table.
	waitKey map[TxnID]Key
	tlFree  []*txnLocks

	_ [24]byte
}

// Manager is the striped lock manager. See the package comment for the
// concurrency contract.
type Manager struct {
	stripes []stripe
	mask    uint64
	txns    []txnShard
	tmask   uint64

	// det guards the global wait-for graph. Only requests that block (and
	// the release/timeout paths cleaning up after them) take it; the
	// uncontended grant path never does. Lock order: a stripe mutex may be
	// held while taking det, never the reverse.
	det struct {
		sync.Mutex
		// waitFor[a] lists the txns a is waiting on (for cycle detection);
		// it aliases a's request record and may repeat a txn.
		waitFor map[TxnID][]TxnID
		// free pools request records; seen and stack are the cycle
		// check's scratch.
		free  []*request
		seen  map[TxnID]struct{}
		stack []TxnID
	}

	// cfgMu guards waitTimeout (set rarely, read per blocked wait).
	cfgMu       sync.Mutex
	waitTimeout time.Duration
}

// NewManager creates an empty lock manager with DefaultStripes stripes.
func NewManager() *Manager { return newManagerStripes(DefaultStripes) }

// newManagerStripes creates an empty lock manager with n stripes, a power of
// two. One stripe reproduces the seed single-table manager exactly and is
// the differential oracle of the striped one.
func newManagerStripes(n int) *Manager {
	m := &Manager{
		stripes: make([]stripe, n),
		mask:    uint64(n - 1),
		// Txn-state shards never need to outnumber stripes: both bound
		// the same worker concurrency.
		txns:  make([]txnShard, n),
		tmask: uint64(n - 1),
	}
	for i := range m.txns {
		m.txns[i].held = make(map[TxnID]*txnLocks)
		m.txns[i].waitKey = make(map[TxnID]Key)
	}
	m.det.waitFor = make(map[TxnID][]TxnID)
	m.det.seen = make(map[TxnID]struct{})
	return m
}

// keyHash is keytab.Hash, the Fibonacci hash every stripe's table homes
// its keys by: stripeOf and the held set read their bits from the same
// product.
func keyHash(key Key) uint64 { return keytab.Hash(key.Table, key.Row) }

// stripeOf hashes a key to its stripe: keyHash's bits from 32 up, which a
// stripe's table, homing keys by the top bits, does not read below 2^26
// slots.
func (m *Manager) stripeOf(key Key) *stripe {
	return &m.stripes[(keyHash(key)>>32)&m.mask]
}

// txnShardOf maps a transaction to its bookkeeping shard. Txn ids are
// allocated sequentially, so the low bits alone spread workers evenly.
func (m *Manager) txnShardOf(txn TxnID) *txnShard {
	return &m.txns[uint64(txn)&m.tmask]
}

func (s *stripe) newLockState() *lockState {
	if n := len(s.lsFree); n > 0 {
		ls := s.lsFree[n-1]
		s.lsFree = s.lsFree[:n-1]
		return ls
	}
	return &lockState{}
}

func (s *stripe) freeLockState(ls *lockState) {
	ls.granted = ls.granted[:0]
	ls.waiters = ls.waiters[:0]
	s.lsFree = append(s.lsFree, ls)
}

func (ts *txnShard) newTxnLocks() *txnLocks {
	if n := len(ts.tlFree); n > 0 {
		tl := ts.tlFree[n-1]
		ts.tlFree = ts.tlFree[:n-1]
		return tl
	}
	return &txnLocks{index: make([]int32, minIndex)}
}

// Counts returns total grants, waits, and deadlocks observed, summed over
// stripes.
func (m *Manager) Counts() (acquired, waits, deadlocks int64) {
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		acquired += s.acquired
		waits += s.waits
		deadlocks += s.deadlocks
		s.mu.Unlock()
	}
	return acquired, waits, deadlocks
}

// Keys returns the number of keys that have a lock state (held, or waited
// for), summed over stripes. A manager with no transaction in flight has
// none; any other count there is a leaked state.
func (m *Manager) Keys() int {
	n := 0
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += s.locks.Len()
		s.mu.Unlock()
	}
	return n
}

// Timeouts returns the number of waits that expired (SetWaitTimeout).
func (m *Manager) Timeouts() int64 {
	var n int64
	for i := range m.stripes {
		s := &m.stripes[i]
		s.mu.Lock()
		n += s.timeouts
		s.mu.Unlock()
	}
	return n
}

// SetWaitTimeout bounds every lock wait at d plus a per-wait jitter of up
// to d/4 (see waitJitter); 0 (the default) waits forever.
// Expired waits fail with ErrTimeout, which transaction layers handle as
// a deadlock abort. Distributed execution requires a bound: cross-engine
// wait cycles never appear in any single wait-for graph.
func (m *Manager) SetWaitTimeout(d time.Duration) {
	m.cfgMu.Lock()
	m.waitTimeout = d
	m.cfgMu.Unlock()
}

func (m *Manager) getWaitTimeout() time.Duration {
	m.cfgMu.Lock()
	d := m.waitTimeout
	m.cfgMu.Unlock()
	return d
}

// HeldBy returns the number of locks txn currently holds. It must not run
// concurrently with an Acquire of txn: a grant that did not wait is recorded
// in txn's held set without the shard mutex. (A grant that waited is
// recorded under it, so a caller watching a blocked transaction from another
// goroutine, as a deadlock test does, reads a consistent count.)
func (m *Manager) HeldBy(txn TxnID) int {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if tl := ts.held[txn]; tl != nil {
		return len(tl.keys)
	}
	return 0
}

func compatible(a, b Mode) bool { return a == Shared && b == Shared }

// grantable reports whether a request by txn for mode can join the granted
// group of ls. FIFO fairness: a new request also waits behind existing
// waiters.
func grantable(ls *lockState, txn TxnID, mode Mode) bool {
	if len(ls.waiters) > 0 {
		return false
	}
	return compatibleWithGranted(ls, txn, mode)
}

// compatibleWithGranted reports whether a request by txn for mode
// conflicts with no currently granted lock of another transaction.
func compatibleWithGranted(ls *lockState, txn TxnID, mode Mode) bool {
	for _, g := range ls.granted {
		if g.txn != txn && !compatible(g.mode, mode) {
			return false
		}
	}
	return true
}

// Acquire takes key in mode for txn, blocking while incompatible locks are
// held. A Shared request by a holder of Exclusive is a no-op; an Exclusive
// request by a holder of Shared is an upgrade. Returns ErrDeadlock if
// waiting would close a cycle in the wait-for graph.
func (m *Manager) Acquire(txn TxnID, key Key, mode Mode) error {
	// One trip to the bookkeeping shard finds or creates txn's held set.
	// No other goroutine writes that set (see the package concurrency
	// contract), so the re-entrant check, and the record once granted, use
	// it without the shard mutex: the answer cannot change underneath us.
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	tl := ts.held[txn]
	if tl == nil {
		tl = ts.newTxnLocks()
		ts.held[txn] = tl
	}
	ts.mu.Unlock()

	i, held := tl.find(key)
	if held && (tl.keys[i].mode == Exclusive || mode == Shared) {
		return nil
	}
	// A held key here is an upgrade S -> X. The shared grant is KEPT while
	// waiting (2PL: dropping it would let a writer slip between the read
	// and the write); it is replaced in place once the upgrade is granted.
	// Upgrades have priority over plain waiters; two simultaneous upgrades
	// deadlock and one is aborted.
	isUpgrade := held

	st := m.stripeOf(key)
	st.mu.Lock()
	ls := st.locks.Get(key.Table, key.Row)
	if ls == nil {
		ls = st.newLockState()
		st.locks.Put(key.Table, key.Row, ls)
	}

	can := grantable(ls, txn, mode)
	if isUpgrade {
		can = compatibleWithGranted(ls, txn, mode)
	}
	if can {
		if isUpgrade {
			removeGrant(ls, txn)
		}
		ls.granted = append(ls.granted, grant{txn: txn, mode: mode})
		st.acquired++
		st.mu.Unlock()
		tl.record(i, isUpgrade, key, mode)
		return nil
	}

	// Must wait: record wait-for edges and check for a cycle. An
	// upgrade waits only on the granted group; a plain request also
	// waits on the waiters queued ahead of it. The detector mutex is
	// taken under the stripe mutex (stripe -> det is the only nesting
	// order anywhere), so the edges and the enqueue are atomic with
	// respect to other blockers of this stripe, and the graph itself is
	// consistent across stripes because every mutation holds det.
	m.det.Lock()
	var req *request
	if n := len(m.det.free); n > 0 {
		req, m.det.free = m.det.free[n-1], m.det.free[:n-1]
	} else {
		req = &request{ready: make(chan error, 1)}
	}
	req.txn, req.mode, req.blockers = txn, mode, req.blockers[:0]
	for _, g := range ls.granted {
		if g.txn != txn {
			req.blockers = append(req.blockers, g.txn)
		}
	}
	if !isUpgrade {
		for _, r := range ls.waiters {
			if r.txn != txn {
				req.blockers = append(req.blockers, r.txn)
			}
		}
	}
	m.det.waitFor[txn] = req.blockers
	cycle := m.cycleFromLocked(txn)
	if cycle {
		delete(m.det.waitFor, txn)
		m.det.free = append(m.det.free, req)
	}
	m.det.Unlock()
	if cycle {
		st.deadlocks++
		if len(ls.granted) == 0 && len(ls.waiters) == 0 {
			st.locks.Delete(key.Table, key.Row)
			st.freeLockState(ls)
		}
		st.mu.Unlock()
		return ErrDeadlock
	}
	if isUpgrade {
		// Insert the upgrade ahead of plain waiters.
		ls.waiters = append(ls.waiters, nil)
		copy(ls.waiters[1:], ls.waiters)
		ls.waiters[0] = req
	} else {
		ls.waiters = append(ls.waiters, req)
	}
	st.waits++
	st.mu.Unlock()

	ts.mu.Lock()
	ts.waitKey[txn] = key
	tl.waited = true
	ts.mu.Unlock()

	var err error
	if timeout := m.getWaitTimeout(); timeout > 0 {
		t := time.NewTimer(timeout + waitJitter(timeout, txn, key))
		select {
		case err = <-req.ready:
			t.Stop()
		case <-t.C:
			err = m.expireWait(key, req)
		}
	} else {
		err = <-req.ready
	}
	// Granted, timed out or cancelled, the request has left the queue and
	// its one outcome has been received: the wait's bookkeeping goes (a
	// cancelling ReleaseAll has already dropped it; deleting is idempotent)
	// and the record returns to the pool. The grant is recorded under the
	// shard mutex, which this path takes anyway (see HeldBy).
	m.det.Lock()
	delete(m.det.waitFor, txn)
	m.det.free = append(m.det.free, req)
	m.det.Unlock()
	ts.mu.Lock()
	delete(ts.waitKey, txn)
	if err == nil {
		tl.record(i, isUpgrade, key, mode)
	}
	ts.mu.Unlock()
	return err
}

// waitJitter lengthens a bounded wait by up to a quarter of the timeout, a
// fixed function of who waits for what. The timeout stands in for deadlock
// detection across lock managers; the two waits of such a cycle tend to
// begin together, and with one common deadline they would expire together,
// both transactions would abort, and their retries would meet again in
// step. Spread out, the first to expire releases the other.
func waitJitter(timeout time.Duration, txn TxnID, key Key) time.Duration {
	h := rng.Substream(uint64(txn), uint64(key.Table)<<56^key.Row)
	return time.Duration(h % uint64(timeout/4+1))
}

// expireWait removes a timed-out waiter from the queue. It races against
// a concurrent grant (promote) or cancellation (ReleaseAll): both resolve
// req.ready while holding the stripe mutex, so under that mutex either the
// request is still queued ungranted — remove it and fail with ErrTimeout —
// or its outcome is already in the buffered channel and the timeout loses.
func (m *Manager) expireWait(key Key, req *request) error {
	st := m.stripeOf(key)
	st.mu.Lock()
	select {
	case err := <-req.ready:
		st.mu.Unlock()
		return err
	default:
	}
	ls := st.locks.Get(key.Table, key.Row)
	if ls != nil {
		for i, r := range ls.waiters {
			if r == req {
				ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
				break
			}
		}
	}
	st.timeouts++
	if ls != nil {
		st.promote(key, ls)
	}
	st.mu.Unlock()
	return ErrTimeout
}

// cycleFromLocked reports whether the wait-for graph has a cycle reachable
// from start: a depth-first walk on the detector's own scratch. Callers
// hold m.det.
func (m *Manager) cycleFromLocked(start TxnID) bool {
	clear(m.det.seen)
	stack := append(m.det.stack[:0], m.det.waitFor[start]...)
	cycle := false
	for len(stack) > 0 && !cycle {
		t := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if t == start {
			cycle = true
		} else if _, seen := m.det.seen[t]; !seen {
			m.det.seen[t] = struct{}{}
			stack = append(stack, m.det.waitFor[t]...)
		}
	}
	m.det.stack = stack[:0]
	return cycle
}

func removeGrant(ls *lockState, txn TxnID) {
	out := ls.granted[:0]
	for _, g := range ls.granted {
		if g.txn == txn {
			continue
		}
		out = append(out, g)
	}
	ls.granted = out
}

// promote grants FIFO waiters until the first one that conflicts with the
// (growing) granted group. Granting a waiting upgrade first retires the
// transaction's old shared grant. Emptied states return to the pool.
// Callers hold s.mu.
func (s *stripe) promote(key Key, ls *lockState) {
	for len(ls.waiters) > 0 {
		r := ls.waiters[0]
		if !compatibleWithGranted(ls, r.txn, r.mode) {
			// FIFO: stop at the first ungrantable waiter.
			break
		}
		// Retire an old grant of the same transaction (upgrade).
		removeGrant(ls, r.txn)
		ls.granted = append(ls.granted, grant{txn: r.txn, mode: r.mode})
		s.acquired++
		copy(ls.waiters, ls.waiters[1:])
		ls.waiters = ls.waiters[:len(ls.waiters)-1]
		// The waiter finishes bookkeeping in Acquire.
		r.ready <- nil
	}
	if len(ls.granted) == 0 && len(ls.waiters) == 0 {
		s.locks.Delete(key.Table, key.Row)
		s.freeLockState(ls)
	}
}

// ReleaseAll drops every lock txn holds and cancels its waits (strict 2PL
// release at commit or abort).
func (m *Manager) ReleaseAll(txn TxnID) {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	tl := ts.held[txn]
	if tl == nil {
		// Every Acquire creates the held set first: txn never asked for a
		// lock, so it holds and waits on nothing.
		ts.mu.Unlock()
		return
	}
	delete(ts.held, txn)
	var key Key
	waited, waiting := tl.waited, false
	if waited {
		if key, waiting = ts.waitKey[txn]; waiting {
			delete(ts.waitKey, txn)
		}
	}
	ts.mu.Unlock()

	// Only a transaction that has blocked can have wait-for edges: one that
	// never did releases without touching the detector.
	if waited {
		m.det.Lock()
		delete(m.det.waitFor, txn)
		m.det.Unlock()
	}

	// Cancel an in-flight wait (possible after a deadlock abort racing
	// with a grant). The waitKey index makes this O(1) instead of a
	// whole-table scan.
	if waiting {
		st := m.stripeOf(key)
		st.mu.Lock()
		if ls := st.locks.Get(key.Table, key.Row); ls != nil {
			for i, r := range ls.waiters {
				if r.txn == txn {
					ls.waiters = append(ls.waiters[:i], ls.waiters[i+1:]...)
					r.ready <- errCancelled
					break
				}
			}
			st.promote(key, ls)
		}
		st.mu.Unlock()
	}
	for _, h := range tl.keys {
		st := m.stripeOf(h.key)
		st.mu.Lock()
		if ls := st.locks.Get(h.key.Table, h.key.Row); ls != nil {
			removeGrant(ls, txn)
			st.promote(h.key, ls)
		}
		st.mu.Unlock()
	}
	tl.reset()
	ts.mu.Lock()
	ts.tlFree = append(ts.tlFree, tl)
	ts.mu.Unlock()
}
