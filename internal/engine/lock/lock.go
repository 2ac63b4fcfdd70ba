// Package lock implements a strict two-phase-locking row lock manager with
// shared/exclusive modes, lock upgrade, and deadlock detection via a
// wait-for graph (victims get ErrDeadlock and are expected to abort and
// retry — the engine's transaction layer does this). Every wait ends with
// a grant or a detected cycle: there is no wait timeout.
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
// blocked in stripe 2 on a lock A holds), and, in a cluster, managers. The
// wait-for graph is therefore a Graph of its own behind its own mutex,
// touched ONLY by requests that actually block — the uncontended grant
// path and every release do not take it, so detection cost scales with
// contention, not throughput. The managers of a cluster share one Graph
// (a standalone manager has its own): a global transaction (see Global)
// has a branch and a held set on each manager it runs on but is one vertex
// of the graph, so a cycle through several managers is found the way a
// cycle through several stripes is.
//
// Bookkeeping is O(1) per request however many locks a transaction holds,
// and it is the transaction's own: the caller keeps an Owner, its TxnID and
// the locks it holds, and passes it to Lock and Release. The held set an
// Owner carries is a hash index over its locks, so an uncontended grant
// visits the key's stripe and nothing else shared, and a release visits the
// stripes of the keys held. Neither path allocates in steady state. Granted
// locks are value entries in a pooled per-key state, an Owner reuses its
// held set from one transaction to the next, and a request that blocks
// takes a pooled request record — its wake-up channel and its wait-for
// edge list are reused — and cycle detection walks the graph on scratch
// kept beside it.
//
// Concurrency contract: methods are safe for concurrent use across Owners.
// An Owner is its transaction's alone: its Locks and its final Release are
// issued serially — the engine runs each transaction on one goroutine —
// and, for a global TxnID, serially across every manager of its graph, so
// a transaction waits on at most one lock at a time and never releases
// while it waits. Two Owners must not carry one TxnID on one manager at
// once: the stripes know a grant by its TxnID, so each would release the
// other's locks.
//
// Acquire, ReleaseAll and HeldBy are the same manager keyed by TxnID: an
// Owner per transaction in a registry behind one mutex, for callers that
// keep none.
package lock

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"tpccmodel/internal/engine/keytab"
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

// TxnID identifies a transaction. A local TxnID, below 2^63, names a
// transaction of one manager: the same local TxnID on two managers names
// two transactions. A global one (see Global) names one transaction on
// every manager of a Graph.
type TxnID uint64

// globalBit marks a global TxnID.
const globalBit = 1 << 63

// Global returns the TxnID of the global transaction id, which must be
// below 2^63. A global transaction runs a branch on each of several
// managers that share a Graph: each branch has its own held set, as a
// local transaction has, and all of them are one vertex of the graph.
func Global(id uint64) TxnID { return TxnID(id | globalBit) }

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
// materialize one. Records are pooled in the Graph, behind its mutex,
// which every blocked request takes anyway: a transaction waits on at most
// one lock at a time, so the pool never holds more than one per worker.
// ready (capacity 1) carries the one grant that ends the wait and is empty
// again when the waiter has received it; blockers backs the transaction's
// wait-for edges while it waits.
type request struct {
	txn      TxnID
	mode     Mode
	ready    chan struct{}
	blockers []vertex
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

// Owner is one transaction's side of a Manager: the TxnID its grants carry
// and the locks it holds. keys lists the locks in the order they were
// taken, which is the order Release drops them in. index is an
// open-addressed table of positions in keys (linear probing, position+1 so
// that zero is empty, the home slot taken from the top bits of keyHash);
// its length is a power of two at least twice len(keys), so a lookup costs
// O(1) however many locks are held. Release empties only the slots the keys
// occupy, so it costs O(locks) whatever size the index grew to, and the
// next transaction on the Owner reuses both slices: steady state allocates
// nothing.
//
// The zero Owner is ready for Begin. Only its own transaction uses it (see
// the package contract).
type Owner struct {
	txn   TxnID
	keys  []heldLock
	index []int32
}

// Begin readies o for transaction txn. o must hold no lock: whatever it
// held was released with its previous transaction.
func (o *Owner) Begin(txn TxnID) {
	if len(o.keys) != 0 {
		panic(fmt.Sprintf("lock: Begin(%d) on an owner that still holds %d locks of %d", txn, len(o.keys), o.txn))
	}
	if o.index == nil {
		o.index = make([]int32, minIndex)
	}
	o.txn = txn
}

// Held returns the number of locks o holds.
func (o *Owner) Held() int { return len(o.keys) }

// find returns the position of key in o.keys.
func (o *Owner) find(key Key) (int, bool) {
	mask := uint64(len(o.index) - 1)
	for s := o.slot(key); ; s = (s + 1) & mask {
		p := o.index[s]
		if p == 0 {
			return 0, false
		}
		if o.keys[p-1].key == key {
			return int(p - 1), true
		}
	}
}

// slot is key's home slot in o.index.
func (o *Owner) slot(key Key) uint64 {
	return keyHash(key) >> (64 - bits.TrailingZeros(uint(len(o.index))))
}

// record notes in o that its transaction now holds key in mode: an
// upgrade of the key at position i rewrites its mode in place; a new key
// is appended and indexed, the index doubling first if it would pass half
// full.
func (o *Owner) record(i int, upgrade bool, key Key, mode Mode) {
	if upgrade {
		o.keys[i].mode = mode
		return
	}
	o.keys = append(o.keys, heldLock{key: key, mode: mode})
	if 2*len(o.keys) <= len(o.index) {
		o.insert(len(o.keys) - 1)
		return
	}
	o.index = make([]int32, 2*len(o.index))
	for i := range o.keys {
		o.insert(i)
	}
}

// insert enters keys[i] into the index.
func (o *Owner) insert(i int) {
	mask := uint64(len(o.index) - 1)
	s := o.slot(o.keys[i].key)
	for o.index[s] != 0 {
		s = (s + 1) & mask
	}
	o.index[s] = int32(i + 1)
}

// reset empties o for its next transaction, clearing each key's slot.
func (o *Owner) reset() {
	mask := uint64(len(o.index) - 1)
	for i := range o.keys {
		s := o.slot(o.keys[i].key)
		for o.index[s] != int32(i+1) {
			s = (s + 1) & mask
		}
		o.index[s] = 0
	}
	o.keys = o.keys[:0]
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

	_ [32]byte
}

// vertex names a transaction in a Graph: a global one by its TxnID alone
// (site 0), a local one by its manager's site and its TxnID.
type vertex struct {
	site uint32
	txn  TxnID
}

// Graph is a wait-for graph, the deadlock detector of every manager that
// shares it. Only requests that block take its mutex; the uncontended
// grant path and the release path never do. Lock order: a stripe mutex may
// be held while taking the graph's, never the reverse.
type Graph struct {
	mu sync.Mutex
	// waitFor[v] lists the vertices v is waiting on (for cycle detection);
	// it aliases v's request record and may repeat a vertex.
	waitFor map[vertex][]vertex
	// free pools request records; seen and stack are the cycle check's
	// scratch.
	free  []*request
	seen  map[vertex]struct{}
	stack []vertex
	// sites counts the managers that joined; each local vertex carries its
	// manager's number.
	sites uint32
}

// NewGraph returns an empty wait-for graph for managers to share.
func NewGraph() *Graph {
	return &Graph{waitFor: make(map[vertex][]vertex), seen: make(map[vertex]struct{})}
}

// Manager is the striped lock manager. See the package comment for the
// concurrency contract.
type Manager struct {
	stripes []stripe
	mask    uint64
	// g is the wait-for graph the manager detects deadlocks on, site its
	// number there.
	g    *Graph
	site uint32
	// ids holds the Owners of the TxnID-keyed methods (byid.go).
	ids idRegistry
}

// NewManager creates an empty lock manager with a wait-for graph of its
// own.
func NewManager() *Manager { return NewGraph().NewManager() }

// NewManager creates an empty lock manager with DefaultStripes stripes
// that detects deadlocks on g.
func (g *Graph) NewManager() *Manager { return g.newManager(DefaultStripes) }

// newManager creates an empty lock manager on g with n stripes, a power of
// two. One stripe reproduces the seed single-table manager exactly and is
// the differential oracle of the striped one.
func (g *Graph) newManager(n int) *Manager {
	g.mu.Lock()
	g.sites++
	site := g.sites
	g.mu.Unlock()
	return &Manager{
		stripes: make([]stripe, n),
		mask:    uint64(n - 1),
		g:       g,
		site:    site,
		ids:     idRegistry{owners: make(map[TxnID]*idOwner)},
	}
}

// vertex names txn in the manager's graph.
func (m *Manager) vertex(txn TxnID) vertex {
	if txn&globalBit != 0 {
		return vertex{txn: txn}
	}
	return vertex{site: m.site, txn: txn}
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

// Lock takes key in mode for o's transaction, blocking while incompatible
// locks are held. A Shared request by a holder of Exclusive is a no-op; an
// Exclusive request by a holder of Shared is an upgrade. Returns
// ErrDeadlock if waiting would close a cycle in the wait-for graph.
func (m *Manager) Lock(o *Owner, key Key, mode Mode) error {
	// Only o's own transaction reads or writes its held set (see the
	// package contract), so the re-entrant check, and the record once
	// granted, take no mutex: the answer cannot change underneath us.
	i, held := o.find(key)
	if held && (o.keys[i].mode == Exclusive || mode == Shared) {
		return nil
	}
	txn := o.txn
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
		o.record(i, isUpgrade, key, mode)
		return nil
	}

	// Must wait: record wait-for edges and check for a cycle. An
	// upgrade waits only on the granted group; a plain request also
	// waits on the waiters queued ahead of it. The graph's mutex is
	// taken under the stripe mutex (stripe -> graph is the only nesting
	// order anywhere), so the edges and the enqueue are atomic with
	// respect to other blockers of this stripe, and the graph itself is
	// consistent across stripes and managers because every mutation
	// holds its mutex.
	g, self := m.g, m.vertex(txn)
	g.mu.Lock()
	var req *request
	if n := len(g.free); n > 0 {
		req, g.free = g.free[n-1], g.free[:n-1]
	} else {
		req = &request{ready: make(chan struct{}, 1)}
	}
	req.txn, req.mode, req.blockers = txn, mode, req.blockers[:0]
	for _, gr := range ls.granted {
		if gr.txn != txn {
			req.blockers = append(req.blockers, m.vertex(gr.txn))
		}
	}
	if !isUpgrade {
		for _, r := range ls.waiters {
			if r.txn != txn {
				req.blockers = append(req.blockers, m.vertex(r.txn))
			}
		}
	}
	g.waitFor[self] = req.blockers
	cycle := g.cycleFromLocked(self)
	if cycle {
		delete(g.waitFor, self)
		g.free = append(g.free, req)
	}
	g.mu.Unlock()
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

	// The only way out of the queue is a grant (promote). The request has
	// left the queue, so its edges go and the record returns to the pool.
	<-req.ready
	g.mu.Lock()
	delete(g.waitFor, self)
	g.free = append(g.free, req)
	g.mu.Unlock()
	o.record(i, isUpgrade, key, mode)
	return nil
}

// cycleFromLocked reports whether the wait-for graph has a cycle reachable
// from start: a depth-first walk on the graph's own scratch. Callers hold
// g.mu.
func (g *Graph) cycleFromLocked(start vertex) bool {
	clear(g.seen)
	stack := append(g.stack[:0], g.waitFor[start]...)
	cycle := false
	for len(stack) > 0 && !cycle {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if v == start {
			cycle = true
		} else if _, seen := g.seen[v]; !seen {
			g.seen[v] = struct{}{}
			stack = append(stack, g.waitFor[v]...)
		}
	}
	g.stack = stack[:0]
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
		// The waiter finishes bookkeeping in Lock.
		r.ready <- struct{}{}
	}
	if len(ls.granted) == 0 && len(ls.waiters) == 0 {
		s.locks.Delete(key.Table, key.Row)
		s.freeLockState(ls)
	}
}

// Release drops every lock o holds (strict 2PL release at commit or
// abort) and leaves o empty, ready for its next Begin. o's transaction is
// not waiting (see the package contract), so it has no wait-for edges and
// the graph is not touched.
func (m *Manager) Release(o *Owner) {
	for _, h := range o.keys {
		st := m.stripeOf(h.key)
		st.mu.Lock()
		if ls := st.locks.Get(h.key.Table, h.key.Row); ls != nil {
			removeGrant(ls, o.txn)
			st.promote(h.key, ls)
		}
		st.mu.Unlock()
	}
	o.reset()
}
