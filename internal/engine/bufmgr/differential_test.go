package bufmgr

import (
	"fmt"
	"sync"
	"testing"

	"tpccmodel/internal/buffer"
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/rng"
)

// tapEvent is one event of the manager's reference stream.
type tapEvent struct {
	page storage.PageID
	ev   Event
}

// counted reports whether the event is a counted access (a hit or a miss).
func (e tapEvent) counted() bool { return e.ev != Alloc && e.ev != Claim }

func recordingManager(t *testing.T, capacity int) (*Manager, *[]tapEvent) {
	t.Helper()
	m := New(mustStore(t, 256), capacity)
	events := &[]tapEvent{}
	m.SetTap(func(id storage.PageID, cls int, ev Event) {
		*events = append(*events, tapEvent{page: id, ev: ev})
	})
	return m, events
}

// preallocate creates n store pages through the manager (so the tap sees
// the allocations) and returns their ids.
func preallocate(t *testing.T, m *Manager, n int) []storage.PageID {
	t.Helper()
	ids := make([]storage.PageID, n)
	for i := range ids {
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// checkAgainstOracles replays the tapped stream through two independent
// oracles — the stack-distance simulator over page ids as ordinals (hit iff
// distance <= capacity, LRU's inclusion property) and the direct LRU policy
// — and fails on the first access where either disagrees with the engine's
// own verdict. Allocations and claims touch both oracles without being
// judged, mirroring the engine's uncounted-MRU-insert semantics; a
// read-ahead is judged as the miss it is counted as.
func checkAgainstOracles(t *testing.T, events []tapEvent, capacity int64) {
	t.Helper()
	stack := buffer.NewDenseStackSim(0)
	lru := buffer.NewLRU(capacity)
	for i, e := range events {
		d := stack.Access(int64(e.page))
		lruHit := lru.Access(core.PageID(e.page))
		if !e.counted() {
			continue
		}
		hit := e.ev == Hit
		stackHit := d != buffer.ColdDistance && d <= capacity
		if hit != stackHit {
			t.Fatalf("access %d (page %d): engine hit=%v, stack-distance oracle hit=%v (distance %d)",
				i, e.page, hit, stackHit, d)
		}
		if hit != lruHit {
			t.Fatalf("access %d (page %d): engine hit=%v, LRU policy oracle hit=%v",
				i, e.page, hit, lruHit)
		}
	}
}

// TestLRUDifferentialAdversarial drives the buffer manager with the access
// patterns most likely to expose an eviction-order bug and requires exact
// agreement with both oracles on every access.
func TestLRUDifferentialAdversarial(t *testing.T) {
	const capacity = 16
	patterns := []struct {
		name  string
		pages int
		drive func(ids []storage.PageID, access func(storage.PageID))
	}{
		{
			// Sequential flood: a working set far over capacity, cycled
			// repeatedly — every access past the first lap must miss.
			name:  "sequential-flood",
			pages: 3 * capacity,
			drive: func(ids []storage.PageID, access func(storage.PageID)) {
				for lap := 0; lap < 4; lap++ {
					for _, id := range ids {
						access(id)
					}
				}
			},
		},
		{
			// NURand skew: the benchmark's own hot/cold mixture, where a
			// wrong victim choice shows up as a hit-rate discrepancy.
			name:  "nurand-skew",
			pages: 8 * capacity,
			drive: func(ids []storage.PageID, access func(storage.PageID)) {
				gen := nurand.NewGen(nurand.Params{A: 31, X: 0, Y: int64(len(ids)) - 1}, rng.New(7))
				for i := 0; i < 4096; i++ {
					access(ids[gen.Next()])
				}
			},
		},
		{
			// Scan-then-rescan at exactly capacity: the second scan must
			// hit on every page. The classic off-by-one in "evict when
			// full" turns it into all misses.
			name:  "rescan-at-capacity",
			pages: capacity,
			drive: func(ids []storage.PageID, access func(storage.PageID)) {
				for lap := 0; lap < 3; lap++ {
					for _, id := range ids {
						access(id)
					}
				}
			},
		},
		{
			// Scan-then-rescan one past capacity: LRU's pathological
			// case, every rescan access must miss.
			name:  "rescan-capacity-plus-one",
			pages: capacity + 1,
			drive: func(ids []storage.PageID, access func(storage.PageID)) {
				for lap := 0; lap < 3; lap++ {
					for _, id := range ids {
						access(id)
					}
				}
			},
		},
	}
	for _, p := range patterns {
		t.Run(p.name, func(t *testing.T) {
			m, events := recordingManager(t, capacity)
			ids := preallocate(t, m, p.pages)
			p.drive(ids, func(id storage.PageID) {
				if err := with(m, id, false, func([]byte) {}); err != nil {
					t.Fatal(err)
				}
			})
			checkAgainstOracles(t, *events, capacity)
			// The tap stream and the counters must describe the same run.
			st := m.Stats()
			var taps int64
			for _, e := range *events {
				if e.counted() {
					taps++
				}
			}
			if taps != st.Accesses() {
				t.Fatalf("tap recorded %d accesses, counters say %d", taps, st.Accesses())
			}
		})
	}
}

// TestLRUDifferentialAllocationInterplay interleaves allocations with
// accesses: allocations claim MRU slots without counting as accesses, and
// both oracles must still match the engine verdict access for access.
func TestLRUDifferentialAllocationInterplay(t *testing.T) {
	const capacity = 8
	m, events := recordingManager(t, capacity)
	ids := preallocate(t, m, capacity)
	r := rng.New(11)
	access := func(id storage.PageID) {
		if err := with(m, id, false, func([]byte) {}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 512; i++ {
		if r.Int63n(5) == 0 {
			id, err := m.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, id)
			continue
		}
		access(ids[r.Int63n(int64(len(ids)))])
	}
	checkAgainstOracles(t, *events, capacity)
}

// TestTapConcurrentSmoke drives the manager from several goroutines with
// the tap installed; run under -race via `go test -race ./internal/engine/...`.
// Concurrent verdicts cannot be compared against a serial oracle (unpin
// order is scheduler-dependent), but the tap must observe exactly one
// event per counted access and must never tear.
func TestTapConcurrentSmoke(t *testing.T) {
	const capacity = 8
	m, events := recordingManager(t, capacity)
	ids := preallocate(t, m, 4*capacity)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 256; i++ {
				id := ids[r.Int63n(int64(len(ids)))]
				if err := with(m, id, false, func([]byte) {}); err != nil {
					panic(fmt.Sprintf("access: %v", err))
				}
			}
		}(uint64(w) + 1)
	}
	wg.Wait()
	st := m.Stats()
	var taps int64
	for _, e := range *events {
		if e.counted() {
			taps++
		}
	}
	if want := st.Accesses(); taps != want {
		t.Fatalf("tap recorded %d accesses, counters say %d", taps, want)
	}
	if taps != 4*256 {
		t.Fatalf("tap recorded %d accesses, want %d", taps, 4*256)
	}
}

// TestSetTapDisable verifies a nil tap stops recording.
func TestSetTapDisable(t *testing.T) {
	m, events := recordingManager(t, 4)
	ids := preallocate(t, m, 2)
	m.SetTap(nil)
	if err := with(m, ids[0], false, func([]byte) {}); err != nil {
		t.Fatal(err)
	}
	for _, e := range *events {
		if e.ev != Alloc {
			t.Fatalf("tap recorded an access after being disabled: %+v", e)
		}
	}
}
