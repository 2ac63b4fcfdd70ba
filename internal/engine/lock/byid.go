package lock

import "sync"

// The methods below key the manager by TxnID for callers that keep no
// Owner: each transaction's Owner lives in the manager's registry from its
// first Acquire to its ReleaseAll. The registry is one mutex and a map,
// taken once per call; the engine keeps its own Owners and never comes
// here.

// idRegistry is the Owner of every TxnID that has acquired and not yet
// released, and a freelist of Owners to reuse.
type idRegistry struct {
	mu     sync.Mutex
	owners map[TxnID]*Owner
	free   []*Owner
}

// Acquire is Lock for txn's registered Owner, registering one on txn's
// first request.
func (m *Manager) Acquire(txn TxnID, key Key, mode Mode) error {
	r := &m.ids
	r.mu.Lock()
	o := r.owners[txn]
	if o == nil {
		if n := len(r.free); n > 0 {
			o, r.free = r.free[n-1], r.free[:n-1]
		} else {
			o = &Owner{}
		}
		o.Begin(txn)
		r.owners[txn] = o
	}
	r.mu.Unlock()
	return m.Lock(o, key, mode)
}

// ReleaseAll is Release for txn's registered Owner, which it retires; a
// txn that never acquired holds nothing.
func (m *Manager) ReleaseAll(txn TxnID) {
	r := &m.ids
	r.mu.Lock()
	o := r.owners[txn]
	delete(r.owners, txn)
	r.mu.Unlock()
	if o == nil {
		return
	}
	m.Release(o)
	r.mu.Lock()
	r.free = append(r.free, o)
	r.mu.Unlock()
}
