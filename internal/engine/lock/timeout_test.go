package lock

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// TestWaitTimeout: a bounded wait on a held exclusive lock expires with
// ErrTimeout, which matches ErrDeadlock (the transaction layer's retry
// signal), and the waiter is cleanly removed from the queue.
func TestWaitTimeout(t *testing.T) {
	m := NewManager()
	m.SetWaitTimeout(5 * time.Millisecond)
	k := Key{Table: 1, Row: 7}
	if err := m.Acquire(1, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	err := m.Acquire(2, k, Exclusive)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if !errors.Is(err, ErrDeadlock) {
		t.Fatal("ErrTimeout must match ErrDeadlock for the abort/retry path")
	}
	if n := m.Timeouts(); n != 1 {
		t.Errorf("timeouts = %d, want 1", n)
	}
	// The queue must be clean: releasing txn 1 leaves the key free.
	m.ReleaseAll(1)
	if err := m.Acquire(3, k, Exclusive); err != nil {
		t.Fatalf("lock not free after timeout cleanup: %v", err)
	}
	m.ReleaseAll(3)
}

// TestWaitTimeoutRacesGrant hammers timeout-vs-release races: holders
// release just around the timeout bound. Every waiter must end up either
// granted (and then must release) or timed out — never stuck, and the
// manager must end empty.
func TestWaitTimeoutRacesGrant(t *testing.T) {
	m := NewManager()
	m.SetWaitTimeout(time.Millisecond)
	k := Key{Table: 2, Row: 9}
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		id := TxnID(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := m.Acquire(id, k, Exclusive)
			if err == nil {
				time.Sleep(200 * time.Microsecond)
				m.ReleaseAll(id)
				return
			}
			if !errors.Is(err, ErrDeadlock) {
				t.Errorf("txn %d: unexpected error %v", id, err)
			}
			m.ReleaseAll(id)
		}()
	}
	wg.Wait()
	if err := m.Acquire(999, k, Exclusive); err != nil {
		t.Fatalf("key not free after race storm: %v", err)
	}
	m.ReleaseAll(999)
}

// TestNoTimeoutByDefault: the zero value waits as long as it takes.
func TestNoTimeoutByDefault(t *testing.T) {
	m := NewManager()
	k := Key{Table: 3, Row: 1}
	if err := m.Acquire(1, k, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Acquire(2, k, Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("waiter finished early: %v", err)
	default:
	}
	m.ReleaseAll(1)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.ReleaseAll(2)
}

// TestUpgradeTimeoutKeepsSharedGrant: a timed-out upgrade abandons only
// the waiting X request; the original shared grant stays held until the
// transaction releases.
func TestUpgradeTimeoutKeepsSharedGrant(t *testing.T) {
	m := NewManager()
	m.SetWaitTimeout(2 * time.Millisecond)
	k := Key{Table: 4, Row: 5}
	if err := m.Acquire(1, k, Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Acquire(2, k, Shared); err != nil {
		t.Fatal(err)
	}
	// Txn 1's upgrade blocks on txn 2's shared grant and times out.
	if err := m.Acquire(1, k, Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("upgrade err = %v, want ErrTimeout", err)
	}
	// Txn 1 still holds S: a third writer cannot get X while 1 and 2 hold.
	if err := m.Acquire(3, k, Exclusive); !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer err = %v, want ErrTimeout while S locks held", err)
	}
	m.ReleaseAll(1)
	m.ReleaseAll(2)
	if err := m.Acquire(3, k, Exclusive); err != nil {
		t.Fatalf("key not free after releases: %v", err)
	}
	m.ReleaseAll(3)
}

// TestWaitJitter: the jitter is a fixed function of (transaction, key),
// never negative, never more than a quarter of the timeout, and it tells
// apart the waits a cross-manager cycle is made of — same transaction id
// on neighbouring rows, neighbouring ids on one row — by much more than a
// lock release takes to travel.
func TestWaitJitter(t *testing.T) {
	const timeout = 50 * time.Millisecond
	var lo, hi time.Duration = timeout, 0
	for id := TxnID(1); id <= 2000; id++ {
		j := waitJitter(timeout, id, Key{Table: 3, Row: uint64(id % 7)})
		if j != waitJitter(timeout, id, Key{Table: 3, Row: uint64(id % 7)}) {
			t.Fatalf("txn %d: jitter is not a function of its arguments", id)
		}
		lo, hi = min(lo, j), max(hi, j)
	}
	if lo < 0 || hi > timeout/4 || hi-lo < timeout/5 {
		t.Fatalf("jitter spans [%v, %v], want most of [0, %v]", lo, hi, timeout/4)
	}
	near := 0
	for id := TxnID(1); id <= 1000; id++ {
		a := waitJitter(timeout, id, Key{Table: 3, Row: 11})
		for _, b := range []time.Duration{
			waitJitter(timeout, id, Key{Table: 3, Row: 12}),
			waitJitter(timeout, id+1, Key{Table: 3, Row: 11}),
		} {
			if d := a - b; d > -timeout/100 && d < timeout/100 {
				near++
			}
		}
	}
	// Independent uniform draws over timeout/4 land within timeout/100 of
	// each other 8 % of the time.
	if near > 2000*12/100 {
		t.Fatalf("%d of 2000 neighbouring waits got deadlines within %v of each other", near, timeout/100)
	}
}
