package bufmgr

import (
	"sync"
	"testing"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

// TestPartitionedConcurrentStress hammers a small pool from many goroutines
// (hits, misses, evictions, dirty write-backs, allocation) and then checks
// that per-page content survived. Run under -race this is the pool's
// data-race gate.
func TestPartitionedConcurrentStress(t *testing.T) {
	s := mustStore(t, 256)
	m := New(s, 16)
	const pages = 64
	var ids []storage.PageID
	for i := 0; i < pages; i++ {
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := with(m, id, true, func(p []byte) { p[0] = byte(i) }); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	m.ResetStats() // the setup writes above are not part of the measurement
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := rng.New(uint64(w) + 1)
			for i := 0; i < 400; i++ {
				n := int(r.Int63n(pages))
				err := with(m, ids[n], false, func(p []byte) {
					if p[0] != byte(n) {
						t.Errorf("page %d carries content of page %d", n, p[0])
					}
				})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	st := m.Stats()
	if st.Accesses() != 8*400 {
		t.Errorf("accesses = %d, want %d", st.Accesses(), 8*400)
	}
}
