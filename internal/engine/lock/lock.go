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
// touch a shared mutex or cache line. NewManagerStripes(1) degenerates to
// the original single-table manager and is kept as the differential
// baseline (see striped_test.go).
//
// Deadlock detection is the one structurally global concern: a wait cycle
// can span stripes (txn A blocked in stripe 1 on a lock whose holder is
// blocked in stripe 2 on a lock A holds). The wait-for graph therefore
// lives behind a separate detector mutex that is touched ONLY by requests
// that actually block — the uncontended grant path never takes it, so
// detection cost scales with contention, not throughput.
//
// Neither path allocates in steady state. Granted locks are value entries
// in a pooled per-key state and per-transaction held lists are pooled
// slices; a request that blocks takes a pooled request record — its wake-up
// channel and its wait-for edge list are reused — and cycle detection walks
// the graph on scratch kept beside it.
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
	"sync"
	"time"

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
// per-stripe fixed cost (one map, one mutex, empty freelists) keeps the
// whole manager under a few KB. Must be a power of two.
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

// txnLocks is the pooled per-transaction lock list. Holding a handful of
// locks (TPC-C transactions hold tens), a linear scan beats a map and
// costs nothing to reset.
type txnLocks struct {
	keys []heldLock
}

func (tl *txnLocks) find(key Key) (int, bool) {
	for i := range tl.keys {
		if tl.keys[i].key == key {
			return i, true
		}
	}
	return 0, false
}

// stripe is one shard of the lock table: a mutex, the keys that hash here,
// a freelist for emptied states, and this stripe's share of the counters.
// The pad keeps hot stripes on separate cache lines so uncontended grants
// in different stripes do not false-share.
type stripe struct {
	mu     sync.Mutex
	locks  map[Key]*lockState
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
func NewManager() *Manager { return NewManagerStripes(DefaultStripes) }

// NewManagerStripes creates an empty lock manager with the given stripe
// count, rounded up to a power of two; values < 1 mean DefaultStripes.
// Stripes = 1 reproduces the seed single-table manager exactly and is the
// baseline configuration of the scalability benchmark.
func NewManagerStripes(stripes int) *Manager {
	if stripes < 1 {
		stripes = DefaultStripes
	}
	n := 1
	for n < stripes {
		n <<= 1
	}
	m := &Manager{
		stripes: make([]stripe, n),
		mask:    uint64(n - 1),
		// Txn-state shards never need to outnumber stripes: both bound
		// the same worker concurrency.
		txns:  make([]txnShard, n),
		tmask: uint64(n - 1),
	}
	for i := range m.stripes {
		m.stripes[i].locks = make(map[Key]*lockState)
	}
	for i := range m.txns {
		m.txns[i].held = make(map[TxnID]*txnLocks)
		m.txns[i].waitKey = make(map[TxnID]Key)
	}
	m.det.waitFor = make(map[TxnID][]TxnID)
	m.det.seen = make(map[TxnID]struct{})
	return m
}

// Stripes returns the stripe count (always a power of two).
func (m *Manager) Stripes() int { return len(m.stripes) }

// stripeOf hashes a key to its stripe. Fibonacci multiplicative hashing on
// the mixed row/table bits: row keys are near-sequential per table, so the
// multiply spreads adjacent rows across stripes; the high bits of the
// product carry the mixing.
func (m *Manager) stripeOf(key Key) *stripe {
	h := (key.Row ^ uint64(key.Table)<<32) * 0x9e3779b97f4a7c15
	return &m.stripes[(h>>32)&m.mask]
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
	return &txnLocks{}
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

// HeldBy returns the number of locks txn currently holds.
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

// heldMode returns txn's current mode on key, if any.
func (m *Manager) heldMode(txn TxnID, key Key) (Mode, bool) {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if tl := ts.held[txn]; tl != nil {
		if i, ok := tl.find(key); ok {
			return tl.keys[i].mode, true
		}
	}
	return 0, false
}

// noteHeld records that txn holds key in mode.
func (m *Manager) noteHeld(txn TxnID, key Key, mode Mode) {
	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	defer ts.mu.Unlock()
	tl := ts.held[txn]
	if tl == nil {
		tl = ts.newTxnLocks()
		ts.held[txn] = tl
	}
	if i, ok := tl.find(key); ok {
		tl.keys[i].mode = mode
		return
	}
	tl.keys = append(tl.keys, heldLock{key: key, mode: mode})
}

// Acquire takes key in mode for txn, blocking while incompatible locks are
// held. A Shared request by a holder of Exclusive is a no-op; an Exclusive
// request by a holder of Shared is an upgrade. Returns ErrDeadlock if
// waiting would close a cycle in the wait-for graph.
func (m *Manager) Acquire(txn TxnID, key Key, mode Mode) error {
	// The re-entrant check reads only txn's own held list, which no other
	// goroutine mutates (see the package concurrency contract), so it can
	// run before the stripe lock: the answer cannot change underneath us.
	isUpgrade := false
	if cur, ok := m.heldMode(txn, key); ok {
		if cur == Exclusive || mode == Shared {
			return nil
		}
		// Upgrade S -> X. The shared grant is KEPT while waiting (2PL:
		// dropping it would let a writer slip between the read and the
		// write); it is replaced in place once the upgrade is granted.
		// Upgrades have priority over plain waiters; two simultaneous
		// upgrades deadlock and one is aborted.
		isUpgrade = true
	}

	st := m.stripeOf(key)
	st.mu.Lock()
	ls := st.locks[key]
	if ls == nil {
		ls = st.newLockState()
		st.locks[key] = ls
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
		m.noteHeld(txn, key, mode)
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
			delete(st.locks, key)
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

	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	ts.waitKey[txn] = key
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
	// and the record returns to the pool.
	if err == nil {
		m.noteHeld(txn, key, mode)
	}
	m.det.Lock()
	delete(m.det.waitFor, txn)
	m.det.free = append(m.det.free, req)
	m.det.Unlock()
	ts.mu.Lock()
	delete(ts.waitKey, txn)
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
	ls := st.locks[key]
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
		delete(s.locks, key)
		s.freeLockState(ls)
	}
}

// ReleaseAll drops every lock txn holds and cancels its waits (strict 2PL
// release at commit or abort).
func (m *Manager) ReleaseAll(txn TxnID) {
	m.det.Lock()
	delete(m.det.waitFor, txn)
	m.det.Unlock()

	ts := m.txnShardOf(txn)
	ts.mu.Lock()
	key, waiting := ts.waitKey[txn]
	if waiting {
		delete(ts.waitKey, txn)
	}
	tl := ts.held[txn]
	if tl != nil {
		delete(ts.held, txn)
	}
	ts.mu.Unlock()

	// Cancel an in-flight wait (possible after a deadlock abort racing
	// with a grant). The waitKey index makes this O(1) instead of a
	// whole-table scan.
	if waiting {
		st := m.stripeOf(key)
		st.mu.Lock()
		if ls := st.locks[key]; ls != nil {
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
	if tl == nil {
		return
	}
	for _, h := range tl.keys {
		st := m.stripeOf(h.key)
		st.mu.Lock()
		if ls := st.locks[h.key]; ls != nil {
			removeGrant(ls, txn)
			st.promote(h.key, ls)
		}
		st.mu.Unlock()
	}
	tl.keys = tl.keys[:0]
	ts.mu.Lock()
	ts.tlFree = append(ts.tlFree, tl)
	ts.mu.Unlock()
}
