package lock

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// start runs m.Lock(o, key, Exclusive) on its own goroutine and
// returns once the request has ended or parked, that is once m has counted
// one more wait, and says which. The channel delivers the request's error:
// at once if it ended, on its grant if it parked.
func start(m *Manager, o *Owner, key Key) (parked bool, done <-chan error) {
	_, waits, _ := m.Counts()
	ch := make(chan error, 1)
	go func() { ch <- m.Lock(o, key, Exclusive) }()
	for {
		if _, w, _ := m.Counts(); w > waits {
			return true, ch
		}
		if len(ch) > 0 {
			return false, ch
		}
		runtime.Gosched()
	}
}

// deadlocks sums the deadlock counters of the given managers.
func deadlocks(ms ...*Manager) int64 {
	var n int64
	for _, m := range ms {
		_, _, d := m.Counts()
		n += d
	}
	return n
}

// TestCycleAcrossManagers runs two managers on one Graph, as the shards of
// a cluster do. Global transactions a and b each hold a key on a different
// manager and then cross: the cycle is in neither manager's own waits.
// Each has a branch on each manager, an Owner of its global id there.
//
//   - Serially: a waits on m2 for b's key, and b's request on m1 for a's
//     key closes the cycle. b, the requester that closes it, and only b,
//     gets ErrDeadlock, counted by m1; once b releases on both managers, a
//     is granted.
//   - Concurrently: both cross at once. Exactly one of them is the victim,
//     whichever closes the cycle, and the other is granted once the victim
//     releases.
//   - The same local TxnIDs crossing the same way are four transactions,
//     not two: txn 1 and txn 2 of m1 are not txn 1 and txn 2 of m2, so both
//     requests wait, no deadlock is reported, and each is granted when its
//     own manager's holder releases.
//
// Every manager ends with no lock state and the graph with no edge.
func TestCycleAcrossManagers(t *testing.T) {
	g := NewGraph()
	m1, m2 := g.NewManager(), g.NewManager()
	k1, k2 := k(1), k(2)
	// branch is a transaction's pair of Owners, [0] on m1 and [1] on m2.
	type branch [2]Owner
	begin := func(txn TxnID) *branch {
		var br branch
		br[0].Begin(txn)
		br[1].Begin(txn)
		return &br
	}
	hold := func(m *Manager, o *Owner, key Key) {
		t.Helper()
		if err := m.Lock(o, key, Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	releaseBoth := func(br *branch) {
		m1.Release(&br[0])
		m2.Release(&br[1])
	}

	a, b := begin(Global(1)), begin(Global(2))
	hold(m1, &a[0], k1)
	hold(m2, &b[1], k2)
	parked, aDone := start(m2, &a[1], k2)
	if !parked {
		t.Fatalf("a's request for b's key ended (%v) instead of waiting", <-aDone)
	}
	parked, bDone := start(m1, &b[0], k1)
	if parked {
		t.Fatal("b's request closing the cycle across managers waits: the cycle went unseen")
	}
	if err := <-bDone; err != ErrDeadlock {
		t.Fatalf("b closing the cycle across managers got %v, want ErrDeadlock", err)
	}
	if _, _, d := m1.Counts(); d != 1 || deadlocks(m2) != 0 {
		t.Fatalf("deadlocks counted m1 %d, m2 %d; want 1 on m1, the manager b asked", d, deadlocks(m2))
	}
	releaseBoth(b)
	if err := <-aDone; err != nil {
		t.Fatalf("a after the victim released: %v", err)
	}
	releaseBoth(a)

	a, b = begin(Global(3)), begin(Global(4))
	hold(m1, &a[0], k1)
	hold(m2, &b[1], k2)
	errs := make(chan error, 2)
	var wg sync.WaitGroup
	for _, cross := range []struct {
		m   *Manager
		br  *branch
		o   *Owner
		key Key
	}{{m2, a, &a[1], k2}, {m1, b, &b[0], k1}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := cross.m.Lock(cross.o, cross.key, Exclusive)
			if err != nil {
				releaseBoth(cross.br) // the victim aborts
			}
			errs <- err
		}()
	}
	wg.Wait()
	victims, grants := 0, 0
	for range 2 {
		switch err := <-errs; {
		case err == nil:
			grants++
		case errors.Is(err, ErrDeadlock):
			victims++
		default:
			t.Fatalf("crossing request: %v", err)
		}
	}
	if victims != 1 || grants != 1 {
		t.Fatalf("concurrent crossing: %d victims and %d grants, want one of each", victims, grants)
	}
	if d := deadlocks(m1, m2); d != 2 {
		t.Fatalf("deadlocks %d after the second cycle, want 2", d)
	}
	releaseBoth(a)
	releaseBoth(b)

	one, two := begin(1), begin(2)
	hold(m1, &one[0], k1)
	hold(m2, &two[1], k2)
	parked1, done1 := start(m2, &one[1], k2)
	parked2, done2 := start(m1, &two[0], k1)
	if !parked1 || !parked2 {
		t.Fatalf("local requests crossing managers: parked %v and %v, want both waiting (deadlocks %d in all)",
			parked1, parked2, deadlocks(m1, m2))
	}
	m1.Release(&one[0])
	m2.Release(&two[1])
	for _, done := range []<-chan error{done1, done2} {
		if err := <-done; err != nil {
			t.Fatalf("local waiter: %v", err)
		}
	}
	m1.Release(&two[0])
	m2.Release(&one[1])

	if n1, n2 := m1.Keys(), m2.Keys(); n1 != 0 || n2 != 0 {
		t.Fatalf("%d and %d lock states left", n1, n2)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.waitFor) != 0 {
		t.Fatalf("%d vertices still have wait-for edges", len(g.waitFor))
	}
}
