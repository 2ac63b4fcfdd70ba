package lock

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpccmodel/internal/rng"
)

func k(row uint64) Key { return Key{Table: 1, Row: row} }

// begun returns Owners begun as transactions 0 .. n, o[i] as TxnID i.
func begun(n int) []Owner {
	o := make([]Owner, n+1)
	for i := range o {
		o[i].Begin(TxnID(i))
	}
	return o
}

func TestSharedCompatible(t *testing.T) {
	m, o := NewManager(), begun(2)
	if err := m.Lock(&o[1], k(10), Shared); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(&o[2], k(10), Shared) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("S+S should not block")
	}
	if o[1].Held() != 1 || o[2].Held() != 1 {
		t.Error("both txns should hold the lock")
	}
}

func TestExclusiveBlocks(t *testing.T) {
	m, o := NewManager(), begun(2)
	if err := m.Lock(&o[1], k(10), Exclusive); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		m.Lock(&o[2], k(10), Exclusive)
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("X should block behind X")
	case <-time.After(50 * time.Millisecond):
	}
	m.Release(&o[1])
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("waiter never granted after release")
	}
}

func TestReentrantAndNoOpDowngrade(t *testing.T) {
	m, o := NewManager(), begun(2)
	if err := m.Lock(&o[1], k(5), Exclusive); err != nil {
		t.Fatal(err)
	}
	// Re-acquiring in any mode while holding X is a no-op.
	if err := m.Lock(&o[1], k(5), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(&o[1], k(5), Exclusive); err != nil {
		t.Fatal(err)
	}
	if o[1].Held() != 1 {
		t.Errorf("Held = %d, want 1", o[1].Held())
	}
}

func TestUpgrade(t *testing.T) {
	m, o := NewManager(), begun(2)
	if err := m.Lock(&o[1], k(5), Shared); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(&o[1], k(5), Exclusive); err != nil {
		t.Fatal(err)
	}
	// Now exclusive: another S must block.
	blocked := make(chan struct{})
	go func() {
		m.Lock(&o[2], k(5), Shared)
		close(blocked)
	}()
	select {
	case <-blocked:
		t.Fatal("S should block behind upgraded X")
	case <-time.After(50 * time.Millisecond):
	}
	m.Release(&o[1])
	<-blocked
}

// TestNoTimeoutByDefault: a wait lasts as long as the holder holds; nothing
// but the grant ends it.
func TestNoTimeoutByDefault(t *testing.T) {
	m, o := NewManager(), begun(2)
	key := Key{Table: 3, Row: 1}
	if err := m.Lock(&o[1], key, Exclusive); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- m.Lock(&o[2], key, Exclusive) }()
	time.Sleep(10 * time.Millisecond)
	select {
	case err := <-done:
		t.Fatalf("waiter finished early: %v", err)
	default:
	}
	m.Release(&o[1])
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	m.Release(&o[2])
}

func TestDeadlockDetected(t *testing.T) {
	m, o := NewManager(), begun(2)
	if err := m.Lock(&o[1], k(1), Exclusive); err != nil {
		t.Fatal(err)
	}
	if err := m.Lock(&o[2], k(2), Exclusive); err != nil {
		t.Fatal(err)
	}
	// Txn 1 waits for k2 (held by 2).
	errs := make(chan error, 1)
	go func() { errs <- m.Lock(&o[1], k(2), Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	// Txn 2 requesting k1 closes the cycle: it must get ErrDeadlock.
	err := m.Lock(&o[2], k(1), Exclusive)
	if err != ErrDeadlock {
		t.Fatalf("expected ErrDeadlock, got %v", err)
	}
	// Victim aborts, releasing its locks; txn 1 proceeds.
	m.Release(&o[2])
	select {
	case err := <-errs:
		if err != nil {
			t.Fatalf("txn 1 acquire failed: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("txn 1 never unblocked after victim release")
	}
	_, _, deadlocks := m.Counts()
	if deadlocks != 1 {
		t.Errorf("deadlocks = %d", deadlocks)
	}
}

func TestUpgradeDeadlockDetected(t *testing.T) {
	m, o := NewManager(), begun(2)
	m.Lock(&o[1], k(7), Shared)
	m.Lock(&o[2], k(7), Shared)
	errs := make(chan error, 1)
	go func() { errs <- m.Lock(&o[1], k(7), Exclusive) }()
	time.Sleep(50 * time.Millisecond)
	err := m.Lock(&o[2], k(7), Exclusive)
	if err != ErrDeadlock {
		t.Fatalf("upgrade-upgrade should deadlock, got %v", err)
	}
	m.Release(&o[2])
	if err := <-errs; err != nil {
		t.Fatalf("survivor upgrade failed: %v", err)
	}
}

func TestReleaseAllPromotesWaiters(t *testing.T) {
	m, o := NewManager(), begun(5)
	m.Lock(&o[1], k(1), Exclusive)
	var granted int32
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := m.Lock(&o[id], k(1), Shared); err == nil {
				atomic.AddInt32(&granted, 1)
			}
		}(3 + i)
	}
	time.Sleep(50 * time.Millisecond)
	m.Release(&o[1])
	wg.Wait()
	if granted != 3 {
		t.Errorf("granted %d shared waiters, want 3 (compatible group)", granted)
	}
}

// TestConcurrentStress runs many goroutine transactions over a small hot
// key set, aborting on deadlock, and verifies mutual exclusion with a
// shadow counter protected only by the lock manager.
func TestConcurrentStress(t *testing.T) {
	m := NewManager()
	counters := make([]int64, 8)
	var txnSeq uint64
	var wg sync.WaitGroup
	var committed int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			var o Owner
			for i := 0; i < 300; i++ {
				o.Begin(TxnID(atomic.AddUint64(&txnSeq, 1)))
				row := uint64(r.Int63n(8))
				ok := true
				if err := m.Lock(&o, k(row), Exclusive); err != nil {
					ok = false
				}
				var other uint64
				if ok {
					counters[row]++
					other = uint64(r.Int63n(8))
					if err := m.Lock(&o, k(other), Exclusive); err != nil {
						// Deadlock victim: undo and abort.
						counters[row]--
						ok = false
					}
				}
				if ok {
					counters[other]++
					atomic.AddInt64(&committed, 1)
				}
				m.Release(&o)
			}
		}(uint64(g + 1))
	}
	wg.Wait()
	if n := m.Keys(); n != 0 {
		t.Fatalf("%d lock states left after every transaction released", n)
	}
	var total int64
	for _, c := range counters {
		total += c
	}
	if total != 2*committed {
		t.Errorf("counter total %d != 2x committed %d (lost update => broken mutual exclusion)",
			total, committed)
	}
	if committed == 0 {
		t.Error("no transaction ever committed")
	}
}
