//go:build !race

// AllocsPerRun is unreliable under the race detector.

package bufmgr

import (
	"testing"

	"tpccmodel/internal/engine/storage"
)

// TestReadAheadAllocatesNothing: a read-ahead and the pin that claims it
// cost no heap allocation, as a miss does not — the goroutine that reads
// runs a function bound when its frame was carved.
func TestReadAheadAllocatesNothing(t *testing.T) {
	const capacity, pages = 8, 64
	s := mustStore(t, 256)
	ids := make([]storage.PageID, pages)
	for i := range ids {
		var err error
		if ids[i], err = s.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	m := New(s, capacity)
	next := 0
	one := make([]storage.PageID, 1)
	aheadAndClaim := func() {
		one[0] = ids[next%pages]
		next++
		m.Prefetch(one)
		p, err := m.Pin(one[0])
		if err != nil {
			t.Fatal(err)
		}
		m.Unpin(p, false)
	}
	if allocs := testing.AllocsPerRun(500, aheadAndClaim); allocs != 0 {
		t.Errorf("%v allocs per read-ahead and claim, want 0", allocs)
	}
	if st := m.Stats(); st.Hits != 0 || st.Misses < 500 {
		t.Errorf("stats %+v: want every page read ahead and none hit", st)
	}
}
