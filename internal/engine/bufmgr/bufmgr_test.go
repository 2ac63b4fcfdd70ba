package bufmgr

import (
	"sync"
	"testing"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

func mustStore(t *testing.T, pageSize int) *storage.Store {
	t.Helper()
	s, err := storage.NewStore(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// with pins page id, runs fn on its bytes and unpins it, dirty when dirty
// is set: one access, spelled as a callback for the tests' brevity.
func with(m *Manager, id storage.PageID, dirty bool, fn func(page []byte)) error {
	p, err := m.Pin(id)
	if err != nil {
		return err
	}
	fn(p.Data)
	m.Unpin(p, dirty)
	return nil
}

func TestHitMissAccounting(t *testing.T) {
	s := mustStore(t, 256)
	m := New(s, 4)
	a, _ := m.Allocate()
	b, _ := m.Allocate()
	// Allocation is page creation, not a logical access.
	st := m.Stats()
	if st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("after allocs: %+v", st)
	}
	with(m, a, false, func([]byte) {})
	with(m, b, false, func([]byte) {})
	st = m.Stats()
	if st.Hits != 2 || st.Misses != 0 {
		t.Errorf("resident accesses should hit: %+v", st)
	}
	// Evict everything, then re-access: now a real miss.
	for i := 0; i < 5; i++ {
		m.Allocate()
	}
	with(m, a, false, func([]byte) {})
	if st = m.Stats(); st.Misses != 1 {
		t.Errorf("re-read after eviction should miss: %+v", st)
	}
}

func TestEvictionWritesBackDirty(t *testing.T) {
	s := mustStore(t, 256)
	m := New(s, 2)
	a, _ := m.Allocate()
	with(m, a, true, func(p []byte) { p[0] = 42 })
	// Fill the pool to evict a.
	b, _ := m.Allocate()
	c, _ := m.Allocate()
	with(m, b, false, func([]byte) {})
	with(m, c, false, func([]byte) {})
	if m.Resident() > 2 {
		t.Fatalf("resident %d > capacity", m.Resident())
	}
	// Reading a back must see the written byte (write-back happened).
	with(m, a, false, func(p []byte) {
		if p[0] != 42 {
			t.Error("dirty page lost on eviction")
		}
	})
}

func TestLRUVictimSelection(t *testing.T) {
	s := mustStore(t, 256)
	m := New(s, 2)
	a, _ := m.Allocate()
	_, _ = m.Allocate() // pool: a, b
	with(m, a, false, func([]byte) {})
	// b is LRU now; touching a new page evicts b.
	c, _ := m.Allocate()
	_ = c
	with(m, a, false, func(p []byte) {})
	st := m.Stats()
	if st.Hits < 2 {
		t.Errorf("page a should have stayed resident: %+v", st)
	}
}

func TestCrashDropsDirtyPages(t *testing.T) {
	s := mustStore(t, 256)
	m := New(s, 4)
	a, _ := m.Allocate()
	with(m, a, true, func(p []byte) { p[0] = 7 })
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	with(m, a, false, func(p []byte) {
		if p[0] != 0 {
			t.Error("crash should lose unflushed writes")
		}
	})
	// Flushed writes survive a crash.
	with(m, a, true, func(p []byte) { p[0] = 9 })
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	with(m, a, false, func(p []byte) {
		if p[0] != 9 {
			t.Error("flushed write lost")
		}
	})
}

func TestClassifierStats(t *testing.T) {
	s := mustStore(t, 256)
	m := New(s, 4)
	a, _ := m.Allocate()
	b, _ := m.Allocate()
	m.SetClassifier(2, func(id storage.PageID) int {
		if id == a {
			return 0
		}
		return 1
	})
	m.ResetStats()
	with(m, a, false, func([]byte) {})
	with(m, a, false, func([]byte) {})
	with(m, b, false, func([]byte) {})
	cs := m.ClassStats()
	if cs[0].Accesses() != 2 || cs[1].Accesses() != 1 {
		t.Errorf("class stats: %+v", cs)
	}
}

func TestConcurrentAccessStress(t *testing.T) {
	s := mustStore(t, 256)
	m := New(s, 8)
	var ids []storage.PageID
	for i := 0; i < 32; i++ {
		id, _ := m.Allocate()
		ids = append(ids, id)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 2000; i++ {
				id := ids[r.Int63n(int64(len(ids)))]
				slot := int(r.Int63n(250))
				if r.Bernoulli(0.5) {
					with(m, id, true, func(p []byte) { p[slot]++ })
				} else {
					with(m, id, false, func(p []byte) { _ = p[slot] })
				}
			}
		}(uint64(g))
	}
	wg.Wait()
	if m.Resident() > 8 {
		t.Errorf("resident %d exceeds capacity", m.Resident())
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteVisibleAcrossEviction(t *testing.T) {
	// Increment a counter on one page many times while other pages churn
	// the pool; the count must survive every eviction cycle.
	s := mustStore(t, 256)
	m := New(s, 2)
	target, _ := m.Allocate()
	var churn []storage.PageID
	for i := 0; i < 10; i++ {
		id, _ := m.Allocate()
		churn = append(churn, id)
	}
	const n = 200
	r := rng.New(1)
	for i := 0; i < n; i++ {
		with(m, target, true, func(p []byte) { p[0]++ })
		id := churn[r.Int63n(int64(len(churn)))]
		with(m, id, false, func([]byte) {})
	}
	with(m, target, false, func(p []byte) {
		if int(p[0]) != n%256 {
			t.Errorf("counter = %d, want %d", p[0], n%256)
		}
	})
}
