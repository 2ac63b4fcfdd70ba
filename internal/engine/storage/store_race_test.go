package storage

import (
	"bytes"
	"encoding/binary"
	"sync"
	"testing"
)

// TestStoreConcurrentPageIO exercises the lock-free page-I/O path: many
// goroutines read and flush disjoint pages while others allocate new pages
// concurrently with them and with each other, and one polls the counters.
// Run under -race this checks the synchronized-device + atomic stats +
// pooled-scratch design; the per-page content check verifies that
// concurrent flushes never bleed scratch buffers across pages, and the
// allocation check that concurrent Allocates hand out distinct, readable,
// zeroed pages.
func TestStoreConcurrentPageIO(t *testing.T) {
	const (
		pageSize   = 512
		pages      = 16
		workers    = 8
		allocators = 3
		rounds     = 200
	)
	s := mustStore(t, pageSize)
	ids := make([]PageID, pages)
	for i := range ids {
		ids[i] = mustAlloc(t, s)
	}

	var wg sync.WaitGroup
	errs := make(chan error, workers+allocators)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, pageSize)
			// Each worker owns a disjoint slice of pages: same-page
			// serialization is the caller's contract, so the test honours it.
			for r := 0; r < rounds; r++ {
				for i := w; i < pages; i += workers {
					binary.LittleEndian.PutUint64(buf, uint64(i)<<32|uint64(r))
					if err := s.Flush(ids[i], buf); err != nil {
						errs <- err
						return
					}
					got := make([]byte, pageSize)
					if err := s.Read(ids[i], got); err != nil {
						errs <- err
						return
					}
					v := binary.LittleEndian.Uint64(got)
					if v>>32 != uint64(i) {
						t.Errorf("page %d served content of page %d", i, v>>32)
						return
					}
				}
			}
		}()
	}
	// Allocators and a stats poller run alongside the page I/O.
	allocated := make([][]PageID, allocators)
	for a := range allocated {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, pageSize)
			for r := 0; r < rounds; r++ {
				id, err := s.Allocate()
				if err != nil {
					errs <- err
					return
				}
				if err := s.Read(id, buf); err != nil {
					errs <- err
					return
				}
				if !bytes.Equal(buf, make([]byte, pageSize)) {
					t.Errorf("fresh page %d is not zeroed", id)
					return
				}
				allocated[a] = append(allocated[a], id)
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds*4; r++ {
			st := s.Stats()
			if st.Reads < 0 || st.Writes < 0 {
				t.Error("negative I/O counters")
				return
			}
			s.IOCounts()
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	seen := make(map[PageID]bool, pages+allocators*rounds)
	for _, id := range ids {
		seen[id] = true
	}
	for _, got := range allocated {
		for _, id := range got {
			if seen[id] {
				t.Fatalf("page %d allocated twice", id)
			}
			seen[id] = true
		}
	}
	if want := int64(pages + allocators*rounds); s.Pages() != want {
		t.Fatalf("store has %d pages, want %d", s.Pages(), want)
	}

	st := s.Stats()
	if st.Detected != 0 || st.Repaired != 0 {
		t.Fatalf("unexpected integrity events on a fault-free device: %+v", st)
	}
	if st.Writes < int64(rounds*pages) {
		t.Fatalf("writes = %d, want at least %d", st.Writes, rounds*pages)
	}
}
