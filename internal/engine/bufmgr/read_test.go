package bufmgr

import (
	"bytes"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

// The record layout the tests below read: slot s's live bit is bit s%8 of
// byte s/8, and its recLen bytes start at recBase + s*recLen.
const (
	slotsPerPage = 16
	recLen       = 8
	recBase      = 8
)

func slotFlag(slot int) (off int, bit byte) { return slot / 8, 1 << (slot % 8) }

func slotOff(slot int) int { return recBase + slot*recLen }

// readOnce reads a record as storage.HeapFile.Read does: one visit when the
// pool can serve it, else a Pin and an Unpin. It reports whether it fell
// back.
func readOnce(m *Manager, id storage.PageID, slot int, out []byte) (live, fellBack bool, err error) {
	flagOff, bit := slotFlag(slot)
	if live, ok := m.ReadRecord(id, flagOff, bit, slotOff(slot), out); ok {
		return live, false, nil
	}
	live, err = pinRead(m, id, slot, out)
	return live, true, err
}

// pinRead is the oracle: the record read as a Pin and an Unpin.
func pinRead(m *Manager, id storage.PageID, slot int, out []byte) (bool, error) {
	p, err := m.Pin(id)
	if err != nil {
		return false, err
	}
	flagOff, bit := slotFlag(slot)
	live := p.Data[flagOff]&bit != 0
	if live {
		copy(out, p.Data[slotOff(slot):])
	}
	m.Unpin(p, false)
	return live, nil
}

// classEvent is one tapped event with the class it was tapped with.
type classEvent struct {
	page storage.PageID
	cls  int
	ev   Event
}

func classRecorder(m *Manager) *[]classEvent {
	evs := &[]classEvent{}
	m.SetTap(func(id storage.PageID, cls int, ev Event) {
		*evs = append(*evs, classEvent{id, cls, ev})
	})
	return evs
}

// recount rebuilds per-class counters from a tapped stream, classing every
// counted event by cls(page) at the time of the access — what the pool's
// counters must equal however it caches classes.
func recount(evs []classEvent, classes int, cls func(storage.PageID) int) []Stats {
	out := make([]Stats, classes)
	for _, e := range evs {
		switch e.ev {
		case Hit:
			out[cls(e.page)].Hits++
		case Miss, ReadAhead:
			out[cls(e.page)].Misses++
		}
	}
	return out
}

// TestReadRecordMatchesPinOracle drives two pools with the same random
// operations: one reads records the one-visit way, falling back as
// HeapFile.Read does, the other always with a Pin and an Unpin. Misses,
// read-aheads (claimed finished and claimed in flight), a content latch held
// by a pinner, writes, deletions, allocations, checkpoints and crashes are
// all in the mix.
// After every operation the two must agree on the bytes read, the tapped
// stream (classes included), Stats, ClassStats and the LRU order, and the
// one-visit pool must have fallen back in exactly the four cases it should.
func TestReadRecordMatchesPinOracle(t *testing.T) {
	const capacity, pages, classes, ops = 6, 20, 3, 1500
	cls := func(id storage.PageID) int { return int(id) % classes }
	for seed := uint64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) {
			a, da, ids := gatedPool(t, capacity, pages)
			b, _, _ := gatedPool(t, capacity, pages)
			for _, m := range []*Manager{a, b} {
				m.SetClassifier(classes, cls)
			}
			evA, evB := classRecorder(a), classRecorder(b)
			r := rng.New(seed)
			pick := func() storage.PageID { return ids[r.Int63n(int64(len(ids)))] }
			outA, outB := make([]byte, recLen), make([]byte, recLen)
			var direct, fallbacks, latched, inFlight int

			read := func(id storage.PageID, slot int) {
				t.Helper()
				lockPool(t, a)
				f := a.lookup(id)
				wantFallback := f == nil || f.io == ioRead || f.ahead
				a.mu.Unlock()
				clear(outA)
				clear(outB)
				liveA, fell, errA := readOnce(a, id, slot, outA)
				liveB, errB := pinRead(b, id, slot, outB)
				if errA != nil || errB != nil {
					t.Fatalf("read of page %d: %v / %v", id, errA, errB)
				}
				if fell != wantFallback {
					t.Fatalf("read of page %d fell back %v, want %v", id, fell, wantFallback)
				}
				if fell {
					fallbacks++
				} else {
					direct++
				}
				if liveA != liveB || !bytes.Equal(outA, outB) {
					t.Fatalf("read of page %d slot %d: one visit (%v, %x), oracle (%v, %x)", id, slot, liveA, outA, liveB, outB)
				}
			}
			for op := 0; op < ops; op++ {
				id, slot := pick(), int(r.Int63n(slotsPerPage))
				switch k := r.Int63n(100); {
				case k < 45:
					read(id, slot)
				case k < 65: // a write, or from 60 on a deletion
					put := k < 60
					v := byte(r.Int63n(255) + 1)
					for _, m := range []*Manager{a, b} {
						if err := with(m, id, true, func(p []byte) {
							flagOff, bit := slotFlag(slot)
							if put {
								p[flagOff] |= bit
								for i := range recLen {
									p[slotOff(slot)+i] = v + byte(i)
								}
							} else {
								p[flagOff] &^= bit
							}
						}); err != nil {
							t.Fatal(err)
						}
					}
				case k < 75: // read-ahead, waited out before anything else happens
					batch := []storage.PageID{id, pick(), pick()}
					for _, m := range []*Manager{a, b} {
						m.Prefetch(batch)
						for _, p := range batch {
							awaitRead(t, m, p)
						}
					}
				case k < 80: // a read of a page whose read-ahead is in flight
					if frameOf(t, a, id) != nil {
						continue
					}
					g := da.gateRead(id)
					a.Prefetch([]storage.PageID{id})
					wait(t, g.arrived, "the gated read-ahead")
					// The read-ahead's clean-ahead writes may still move Flushes.
					before, accesses := len(*evA), a.Stats().Accesses()
					flagOff, bit := slotFlag(slot)
					if _, ok := a.ReadRecord(id, flagOff, bit, slotOff(slot), outA); ok {
						t.Fatal("a one-visit read served a page whose read is in flight")
					}
					if len(*evA) != before || a.Stats().Accesses() != accesses {
						t.Fatal("a declined one-visit read counted or tapped something")
					}
					g.release <- nil
					awaitRead(t, a, id)
					b.Prefetch([]storage.PageID{id})
					awaitRead(t, b, id)
					inFlight++
					read(id, slot)
				case k < 85: // a read while a writer holds the content latch
					f := frameOf(t, a, id)
					if f == nil || f.ahead {
						continue
					}
					// The writer's latch is taken as the engine takes it,
					// through Pin, in both pools alike.
					pa, err := a.Pin(id)
					if err != nil {
						t.Fatal(err)
					}
					pb, err := b.Pin(id)
					if err != nil {
						t.Fatal(err)
					}
					before, stats := len(*evA), a.Stats()
					flagOff, bit := slotFlag(slot)
					_, ok := a.ReadRecord(id, flagOff, bit, slotOff(slot), outA)
					unchanged := len(*evA) == before && a.Stats() == stats
					a.Unpin(pa, false)
					b.Unpin(pb, false)
					if ok || !unchanged {
						t.Fatalf("one-visit read of a latched page: ok %v, stream and stats unchanged %v; want false, true", ok, unchanged)
					}
					latched++
					if _, err := pinRead(a, id, slot, outA); err != nil {
						t.Fatal(err)
					}
					if _, err := pinRead(b, id, slot, outB); err != nil {
						t.Fatal(err)
					}
				case k < 95:
					var got [2]storage.PageID
					for i, m := range []*Manager{a, b} {
						var err error
						if got[i], err = m.Allocate(); err != nil {
							t.Fatal(err)
						}
					}
					if got[0] != got[1] {
						t.Fatalf("the pools allocated pages %d and %d", got[0], got[1])
					}
					ids = append(ids, got[0])
				case k < 98:
					for _, m := range []*Manager{a, b} {
						if err := m.FlushAll(); err != nil {
							t.Fatal(err)
						}
					}
				default:
					for _, m := range []*Manager{a, b} {
						if err := m.Crash(); err != nil {
							t.Fatal(err)
						}
					}
				}
				// Clean-ahead writes finish when they finish: let them, so
				// that Flushes compares.
				awaitCleanAhead(t, a)
				awaitCleanAhead(t, b)
				if !slices.Equal(*evA, *evB) {
					t.Fatalf("op %d: tapped streams diverge:\none visit %v\noracle    %v", op, tail(*evA), tail(*evB))
				}
				if sa, sb := a.Stats(), b.Stats(); sa != sb {
					t.Fatalf("op %d: stats %+v, oracle %+v", op, sa, sb)
				}
				if ca, cb := a.ClassStats(), b.ClassStats(); !slices.Equal(ca, cb) {
					t.Fatalf("op %d: class stats %+v, oracle %+v", op, ca, cb)
				}
				if la, lb := lruOrder(t, a), lruOrder(t, b); !slices.Equal(la, lb) {
					t.Fatalf("op %d: LRU order %v, oracle %v", op, la, lb)
				}
			}
			if want := recount(*evA, classes, cls); !slices.Equal(a.ClassStats(), want) {
				t.Errorf("class stats %+v, per-access recount %+v", a.ClassStats(), want)
			}
			if direct == 0 || fallbacks == 0 || latched == 0 || inFlight == 0 {
				t.Errorf("coverage: %d one-visit reads, %d fallbacks, %d latched, %d in flight; want each > 0", direct, fallbacks, latched, inFlight)
			}
		})
	}
}

// TestReadRecordDeclinesPageBeingCleaned: a clean-ahead write-back holds
// its frame's content latch at the device while the frame is unpinned, so
// the one-visit read of it must try the latch, find it taken and decline,
// counting and tapping nothing; once the write is done the frame is idle
// and the read is served.
func TestReadRecordDeclinesPageBeingCleaned(t *testing.T) {
	m, _, ids, readZ, writes, miss := cleanAheadAndMissInFlight(t)
	cleaned := ids[1]
	lockPool(t, m)
	f := m.lookup(cleaned)
	cleaning := f != nil && f.io == ioClean && f.pins == 0
	m.mu.Unlock()
	if !cleaning {
		t.Fatalf("fixture: page %d is not resident, unpinned and being cleaned", cleaned)
	}
	evs := tapInto(m)
	before := m.Stats()
	flagOff, bit := slotFlag(0)
	out := make([]byte, recLen)
	if _, ok := m.ReadRecord(cleaned, flagOff, bit, slotOff(0), out); ok {
		t.Fatal("a one-visit read served a page whose write-back holds its latch")
	}
	if got := evs.get(); len(got) != 0 || m.Stats() != before {
		t.Fatalf("a declined one-visit read tapped %v and moved stats %+v -> %+v", got, before, m.Stats())
	}
	readZ.release <- nil
	for _, g := range writes {
		g.release <- nil
	}
	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	awaitCleanAhead(t, m)
	if _, ok := m.ReadRecord(cleaned, flagOff, bit, slotOff(0), out); !ok {
		t.Fatal("the one-visit read declined the page once its write-back was done")
	}
	if got := evs.get(); len(got) != 1 || got[0] != Hit {
		t.Errorf("the served read tapped %v, want one Hit", got)
	}
}

// tail returns the last few events of s, for a failure message.
func tail(s []classEvent) []classEvent { return s[max(0, len(s)-6):] }

// TestReadRecordRacesWriter has readers of a heap file over the pool race a
// writer that rewrites records on the same page and churners that evict it,
// so the one-visit read, its fallback and misses interleave with the writes.
// Every record read must be whole: all its bytes from one write.
func TestReadRecordRacesWriter(t *testing.T) {
	const rl = 64
	m := New(mustStore(t, 1024), 3)
	h, err := storage.NewHeapFile("t", m, 1024, rl)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, rl)
	var hot []storage.RID // two records on one page
	var cold []storage.RID
	for i := 0; i < 4*h.Slots(); i++ {
		rid, err := h.Insert(rec)
		if err != nil {
			t.Fatal(err)
		}
		if i < 2 {
			hot = append(hot, rid)
		} else if i%h.Slots() == 0 {
			cold = append(cold, rid)
		}
	}
	if hot[0].Page != hot[1].Page {
		t.Fatal("fixture: the two hot records are on different pages")
	}
	var stop atomic.Bool
	errs := make(chan error, 4)
	writer := make(chan struct{})
	go func() {
		defer close(writer)
		w := make([]byte, rl)
		for v := 1; !stop.Load(); v++ {
			for i := range w {
				w[i] = byte(v)
			}
			if err := h.Update(hot[v%2], w); err != nil {
				errs <- err
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) { // the last reader also churns the pool
			defer readers.Done()
			out := make([]byte, rl)
			for i := 0; i < 20000; i++ {
				rid := hot[i%2]
				if g == 2 && i%3 == 0 {
					rid = cold[i%len(cold)]
				}
				if err := h.Read(rid, out); err != nil {
					errs <- err
					return
				}
				for _, c := range out {
					if c != out[0] {
						errs <- fmt.Errorf("torn record at %s: %x", rid, out)
						return
					}
				}
			}
		}(g)
	}
	readers.Wait()
	stop.Store(true)
	<-writer
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if st := m.Stats(); st.Misses == 0 {
		t.Errorf("stats %+v: the churn evicted nothing", st)
	}
}

// TestInsertAtUnknownPageIsOneAccess: redo's InsertAt onto a page its heap
// does not know yet formats the page and writes the row under one pin, so it
// costs the pool one access, as an InsertAt onto a known page does.
func TestInsertAtUnknownPageIsOneAccess(t *testing.T) {
	const rl = 64
	m := New(mustStore(t, 1024), 4)
	h, err := storage.NewHeapFile("t", m, 1024, rl)
	if err != nil {
		t.Fatal(err)
	}
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{3}, rl)
	slots := []uint16{2, 5} // the first finds the page unknown
	for _, slot := range slots {
		before := m.Stats().Accesses()
		if err := h.InsertAt(storage.RID{Page: id, Slot: slot}, rec); err != nil {
			t.Fatal(err)
		}
		if got := m.Stats().Accesses() - before; got != 1 {
			t.Errorf("InsertAt at slot %d cost %d pool accesses, want 1", slot, got)
		}
	}
	if len(h.PageIDs()) != 1 || h.Live() != 2 {
		t.Errorf("heap has %d pages and %d rows, want 1 and 2", len(h.PageIDs()), h.Live())
	}
	out := make([]byte, rl)
	for _, slot := range slots {
		if err := h.Read(storage.RID{Page: id, Slot: slot}, out); err != nil || !bytes.Equal(out, rec) {
			t.Errorf("slot %d reads back %x, %v", slot, out[:4], err)
		}
	}
}

// TestReadRecordCopiesPrefix: a one-visit read copies len(out) bytes and
// nothing past them, so a projected HeapFile.Read of a resident record costs
// one access and leaves the rest of the caller's buffer alone.
func TestReadRecordCopiesPrefix(t *testing.T) {
	const n = 3
	m := New(mustStore(t, 4096), 4)
	id, err := m.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	flagOff, bit := slotFlag(1)
	if err := with(m, id, true, func(p []byte) {
		p[flagOff] |= bit
		for i := range recLen {
			p[slotOff(1)+i] = byte(i + 1)
		}
	}); err != nil {
		t.Fatal(err)
	}
	backing := bytes.Repeat([]byte{0xee}, recLen)
	if live, ok := m.ReadRecord(id, flagOff, bit, slotOff(1), backing[:n]); !live || !ok {
		t.Fatalf("ReadRecord of a resident page = (%v, %v), want (true, true)", live, ok)
	}
	if !bytes.Equal(backing, append([]byte{1, 2, 3}, bytes.Repeat([]byte{0xee}, recLen-n)...)) {
		t.Fatalf("ReadRecord of %d bytes left %x", n, backing)
	}

	const rl, pn = 306, 12
	h, err := storage.NewHeapFile("t", m, 4096, rl)
	if err != nil {
		t.Fatal(err)
	}
	rec := make([]byte, rl)
	for i := range rec {
		rec[i] = byte(i + 1)
	}
	rid, err := h.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	backing = bytes.Repeat([]byte{0xee}, rl)
	before := m.Stats()
	if err := h.Read(rid, backing[:pn]); err != nil {
		t.Fatal(err)
	}
	if got := m.Stats(); got.Hits-before.Hits != 1 || got.Misses != before.Misses {
		t.Errorf("a projected read cost %+v after %+v, want one hit", got, before)
	}
	if !bytes.Equal(backing[:pn], rec[:pn]) || bytes.Count(backing[pn:], []byte{0xee}) != rl-pn {
		t.Errorf("projected read = %x, want %x and nothing past it", backing[:pn+2], rec[:pn])
	}
}

// TestClassCacheFollowsFrames: the class a frame caches is its page's. A
// recycled frame takes its new page's class, a page tagged after Allocate is
// counted in its class from its first access — a pin or a one-visit read —
// and after a crash the re-read pages are counted as per-access
// classification counts them.
func TestClassCacheFollowsFrames(t *testing.T) {
	m := New(mustStore(t, pageSize), 2)
	var mu sync.Mutex
	tags := map[storage.PageID]int{}
	cls := func(id storage.PageID) int {
		mu.Lock()
		defer mu.Unlock()
		return tags[id]
	}
	m.SetClassifier(4, cls)
	evs := classRecorder(m)
	var ids []storage.PageID
	for c := 1; c <= 3; c++ { // allocate, then tag: the class comes late
		id, err := m.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		tags[id] = c
		mu.Unlock()
		ids = append(ids, id)
	}
	out := make([]byte, recLen)
	access := func(id storage.PageID, oneVisit bool) {
		t.Helper()
		var err error
		if oneVisit {
			_, _, err = readOnce(m, id, 0, out)
		} else {
			_, err = pinRead(m, id, 0, out)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	// ids[0] was evicted by the third allocation; ids[1] and ids[2] are
	// resident and untouched since Allocate.
	access(ids[2], true)
	access(ids[1], false)
	// From here on every miss recycles the frame of another class's page,
	// and the access after it hits.
	for round := 0; round < 3; round++ {
		for i, id := range ids {
			access(id, (round+i)%2 == 0)
			access(id, (round+i)%2 == 1)
		}
	}
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		access(id, i%2 == 1)
		access(id, i%2 == 0)
	}
	for _, e := range *evs {
		if e.ev != Alloc && e.cls != cls(e.page) {
			t.Errorf("page %d tapped as %v of class %d, want %d", e.page, e.ev, e.cls, cls(e.page))
		}
	}
	want := recount(*evs, 4, cls)
	if got := m.ClassStats(); !slices.Equal(got, want) {
		t.Errorf("class stats %+v, per-access classification %+v", got, want)
	}
	for c := 1; c <= 3; c++ {
		if want[c].Hits == 0 || want[c].Misses == 0 {
			t.Errorf("class %d: %+v, want both hits and misses", c, want[c])
		}
	}
}

// TestFrameHitLayout: the fields a hit, its unpin and a one-visit read touch
// sit in the frame's first 64 bytes, as the frame comment says.
func TestFrameHitLayout(t *testing.T) {
	var f frame
	fields := []struct {
		name      string
		off, size uintptr
	}{
		{"contentMu", unsafe.Offsetof(f.contentMu), unsafe.Sizeof(f.contentMu)},
		{"pins", unsafe.Offsetof(f.pins), unsafe.Sizeof(f.pins)},
		{"prev", unsafe.Offsetof(f.prev), unsafe.Sizeof(f.prev)},
		{"next", unsafe.Offsetof(f.next), unsafe.Sizeof(f.next)},
		{"data", unsafe.Offsetof(f.data), unsafe.Sizeof(f.data)},
		{"io", unsafe.Offsetof(f.io), unsafe.Sizeof(f.io)},
		{"ahead", unsafe.Offsetof(f.ahead), unsafe.Sizeof(f.ahead)},
		{"dirty", unsafe.Offsetof(f.dirty), unsafe.Sizeof(f.dirty)},
		{"inLRU", unsafe.Offsetof(f.inLRU), unsafe.Sizeof(f.inLRU)},
		{"cls", unsafe.Offsetof(f.cls), unsafe.Sizeof(f.cls)},
	}
	for _, fd := range fields {
		if end := fd.off + fd.size; end > 64 {
			t.Errorf("frame.%s ends at byte %d, past the first cache line", fd.name, end)
		}
	}
}

// hitPool returns a pool holding n resident pages, every one with slot 0
// live, whose classifier is a read-locked table lookup, as the engine's is.
func hitPool(b *testing.B, n int) (*Manager, []storage.PageID) {
	s, err := storage.NewStore(4096)
	if err != nil {
		b.Fatal(err)
	}
	m := New(s, 2*n)
	var mu sync.RWMutex
	rels := make([]int, n)
	m.SetClassifier(4, func(id storage.PageID) int {
		mu.RLock()
		defer mu.RUnlock()
		return rels[id]
	})
	ids := make([]storage.PageID, n)
	for i := range ids {
		if ids[i], err = m.Allocate(); err != nil {
			b.Fatal(err)
		}
		if err := with(m, ids[i], true, func(p []byte) { p[0] = 1 }); err != nil {
			b.Fatal(err)
		}
	}
	return m, ids
}

// benchHits runs b.N accesses of the pages ids split over g goroutines.
func benchHits(b *testing.B, g int, ids []storage.PageID, access func(id storage.PageID, out []byte)) {
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := range g {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]byte, recLen)
			for i := w; i < b.N; i += g {
				access(ids[i%len(ids)], out)
			}
		}()
	}
	wg.Wait()
}

// BenchmarkPinHit is a resident record read as a Pin and an Unpin, at one
// and two goroutines.
func BenchmarkPinHit(b *testing.B) {
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprint("goroutines=", g), func(b *testing.B) {
			m, ids := hitPool(b, 64)
			benchHits(b, g, ids, func(id storage.PageID, out []byte) { pinRead(m, id, 0, out) })
		})
	}
}

// BenchmarkReadHit is the same read in one visit (Manager.ReadRecord).
func BenchmarkReadHit(b *testing.B) {
	for _, g := range []int{1, 2} {
		b.Run(fmt.Sprint("goroutines=", g), func(b *testing.B) {
			m, ids := hitPool(b, 64)
			benchHits(b, g, ids, func(id storage.PageID, out []byte) { readOnce(m, id, 0, out) })
		})
	}
}
