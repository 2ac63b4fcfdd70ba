package bufmgr

import (
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

// gatedDisk is a MemDisk whose data-area page I/Os can be held at a gate
// until the test releases them (optionally with an error), and which counts
// them: per page, in issue order, and how many are in flight. Journal-area
// I/O passes straight through, so a flush reaches its gate with the mirror
// already written, exactly where a real write would be sleeping.
type gatedDisk struct {
	*storage.MemDisk
	delay   time.Duration           // slept per data-area I/O (0 = none)
	onWrite func(id storage.PageID) // called as a data-area write arrives (nil = none)

	mu       sync.Mutex
	gates    map[gateKey]*gate
	reads    map[storage.PageID]int
	writes   map[storage.PageID]int
	writeLog []storage.PageID
	inflight int
	maxSeen  int
}

type gateKey struct {
	id    storage.PageID
	write bool
}

// gate holds one I/O: arrived is closed when the I/O reaches it, and the
// I/O proceeds (nil) or fails (error) with what release delivers.
type gate struct {
	arrived chan struct{}
	release chan error
}

func newGatedDisk() *gatedDisk {
	return &gatedDisk{
		MemDisk: storage.NewMemDisk(),
		gates:   map[gateKey]*gate{},
		reads:   map[storage.PageID]int{},
		writes:  map[storage.PageID]int{},
	}
}

// gateRead and gateWrite arm a one-shot gate for the next data-area read or
// write of page id.
func (d *gatedDisk) gateRead(id storage.PageID) *gate  { return d.arm(gateKey{id, false}) }
func (d *gatedDisk) gateWrite(id storage.PageID) *gate { return d.arm(gateKey{id, true}) }

func (d *gatedDisk) arm(k gateKey) *gate {
	g := &gate{arrived: make(chan struct{}), release: make(chan error, 1)}
	d.mu.Lock()
	d.gates[k] = g
	d.mu.Unlock()
	return g
}

// enter counts one data-area I/O in and waits at its gate, if armed.
func (d *gatedDisk) enter(k gateKey) error {
	d.mu.Lock()
	if k.write {
		d.writes[k.id]++
		d.writeLog = append(d.writeLog, k.id)
	} else {
		d.reads[k.id]++
	}
	d.inflight++
	d.maxSeen = max(d.maxSeen, d.inflight)
	g := d.gates[k]
	delete(d.gates, k)
	d.mu.Unlock()
	if d.delay > 0 {
		time.Sleep(d.delay)
	}
	if k.write && d.onWrite != nil {
		d.onWrite(k.id)
	}
	if g == nil {
		return nil
	}
	close(g.arrived)
	return <-g.release
}

func (d *gatedDisk) leave() {
	d.mu.Lock()
	d.inflight--
	d.mu.Unlock()
}

func (d *gatedDisk) Read(id storage.PageID, area storage.Area, buf []byte) error {
	if area != storage.AreaData {
		return d.MemDisk.Read(id, area, buf)
	}
	defer d.leave()
	if err := d.enter(gateKey{id, false}); err != nil {
		return err
	}
	return d.MemDisk.Read(id, area, buf)
}

func (d *gatedDisk) Write(id storage.PageID, area storage.Area, buf []byte) error {
	if area != storage.AreaData {
		return d.MemDisk.Write(id, area, buf)
	}
	defer d.leave()
	if err := d.enter(gateKey{id, true}); err != nil {
		return err
	}
	return d.MemDisk.Write(id, area, buf)
}

func (d *gatedDisk) readsOf(id storage.PageID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.reads[id]
}

func (d *gatedDisk) writesOf(id storage.PageID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.writes[id]
}

func (d *gatedDisk) maxInFlight() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.maxSeen
}

func (d *gatedDisk) writeSequence() []storage.PageID {
	d.mu.Lock()
	defer d.mu.Unlock()
	return slices.Clone(d.writeLog)
}

const pageSize = 256

// gatedPool builds a P-partition pool of the given capacity over a gated
// disk holding n pages; page i's durable image starts with byte i+1. No
// page is resident.
func gatedPool(t *testing.T, capacity, partitions, n int) (*Manager, *gatedDisk, []storage.PageID) {
	t.Helper()
	d := newGatedDisk()
	s, err := storage.NewStoreOn(d, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]storage.PageID, n)
	buf := make([]byte, pageSize)
	for i := range ids {
		if ids[i], err = s.Allocate(); err != nil {
			t.Fatal(err)
		}
		buf[0] = byte(i + 1)
		if err := s.Flush(ids[i], buf); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	clear(d.writes)
	d.writeLog = nil
	d.mu.Unlock()
	return NewPartitioned(s, capacity, partitions), d, ids
}

// touch pins and unpins page id, dirtying it (byte 1 = v) when v != 0.
func touch(t *testing.T, m *Manager, id storage.PageID, v byte) {
	t.Helper()
	if err := m.With(id, v != 0, func(p []byte) {
		if v != 0 {
			p[1] = v
		}
	}); err != nil {
		t.Fatalf("page %d: %v", id, err)
	}
}

// wait fails the test unless ch is ready within a few seconds: a bound on a
// hang, not a timing assertion.
func wait[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		panic("unreachable")
	}
}

// async runs fn on its own goroutine and returns the channel its result
// arrives on.
func async(fn func() error) <-chan error {
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	return ch
}

// blocked reports that ch has delivered nothing yet, after giving the
// goroutine behind it a moment to get as far as it can. It can only err
// towards passing a check that something is still blocked. A false result
// has consumed the value: fail the test on it.
func blocked(ch <-chan error) bool {
	time.Sleep(20 * time.Millisecond)
	select {
	case <-ch:
		return false
	default:
		return true
	}
}

// awaitCleanerExit returns once p has no cleaner goroutine, so that what
// follows is the foreground path's doing alone.
func awaitCleanerExit(t *testing.T, p *partition) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		p.mu.Lock()
		cleaning := p.cleaning
		p.mu.Unlock()
		if !cleaning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the cleaner did not exit")
		}
	}
}

// frameOf returns page id's frame, or nil.
func frameOf(m *Manager, id storage.PageID) *frame {
	p := m.partOf(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.frames[id]
}

// freeFrames counts the partition's unused frames. Only meaningful for a
// capacity of at most one chunk, once the chunk has been carved.
func freeFrames(p *partition) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.frameChunk)
	for f := p.freeFrames; f != nil; f = f.next {
		n++
	}
	return n
}

// TestHitProceedsDuringGatedRead: a hit on page B returns while a read of
// page A, in the same partition, is held at the device.
func TestHitProceedsDuringGatedRead(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1, 2)
	a, b := ids[0], ids[1]
	touch(t, m, b, 0)

	g := d.gateRead(a)
	miss := async(func() error { return m.With(a, false, func([]byte) {}) })
	wait(t, g.arrived, "the read of A to reach the device")

	hit := async(func() error {
		return m.With(b, false, func(p []byte) {
			if p[0] != 2 {
				t.Errorf("page B carries %d", p[0])
			}
		})
	})
	if err := wait(t, hit, "a hit on B while A's read is in flight"); err != nil {
		t.Fatal(err)
	}
	if got := m.Resident(); got != 2 {
		t.Errorf("resident = %d with A reserved and B resident, want 2", got)
	}
	g.release <- nil
	if err := wait(t, miss, "the miss on A"); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats %+v, want 1 hit and 2 misses", st)
	}
}

// TestConcurrentPinsShareOneRead: two pins of a missing page issue one
// store read between them, and both see its bytes. Whether the second pin
// arrives during the read (waits on the frame) or after it, it is a hit.
func TestConcurrentPinsShareOneRead(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1, 1)
	a := ids[0]
	g := d.gateRead(a)
	see := func() error {
		return m.With(a, false, func(p []byte) {
			if p[0] != 1 {
				t.Errorf("page A carries %d", p[0])
			}
		})
	}
	first := async(see)
	wait(t, g.arrived, "the read of A to reach the device")
	second := async(see)
	if !blocked(second) {
		t.Fatal("a pin of a page whose read is in flight returned before the read did")
	}
	g.release <- nil
	for _, ch := range []<-chan error{first, second} {
		if err := wait(t, ch, "a pin of A"); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.readsOf(a); n != 1 {
		t.Errorf("page A was read %d times, want 1", n)
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats %+v, want 1 miss and 1 hit", st)
	}
}

// TestVictimPinnedDuringWriteBackStays: the dirty LRU victim is pinned
// while its write-back is held at the device; it must stay resident, now
// clean, and the evictor must take the next victim instead.
func TestVictimPinnedDuringWriteBackStays(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 1, 3)
	x, y, z := ids[0], ids[1], ids[2]
	touch(t, m, x, 7) // LRU tail, dirty
	touch(t, m, y, 0) // next, clean

	g := d.gateWrite(x)
	miss := async(func() error { return m.With(z, false, func([]byte) {}) })
	wait(t, g.arrived, "the write-back of X to reach the device")

	fx, err := m.pin(x) // a hit: the pin itself never waits for the write
	if err != nil {
		t.Fatal(err)
	}
	g.release <- nil
	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	m.unpin(fx, false)

	if f := frameOf(m, x); f == nil || f.dirty {
		t.Errorf("X after its write-back: frame %v, want resident and clean", f)
	}
	if frameOf(m, y) != nil {
		t.Error("Y is still resident: the evictor did not take the next victim")
	}
	if frameOf(m, z) == nil {
		t.Error("Z is not resident")
	}
	if st := m.Stats(); st.Evicts != 1 || st.Flushes != 1 {
		t.Errorf("stats %+v, want 1 evict and 1 flush", st)
	}
	if n := d.writesOf(x); n != 1 {
		t.Errorf("X written %d times, want 1", n)
	}
	touch(t, m, x, 0)
	if err := m.With(x, false, func(p []byte) {
		if p[1] != 7 {
			t.Errorf("X lost its update: byte = %d", p[1])
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedReadUnpublishesFrame: a read that fails leaves no trace — the
// reader gets the error, a pin waiting on the frame is woken and retries as
// a miss of its own, and no frame leaks.
func TestFailedReadUnpublishesFrame(t *testing.T) {
	const capacity = 4
	m, d, ids := gatedPool(t, capacity, 1, capacity+1)
	// Carve every frame and free them again, so the freelist is the whole
	// pool and the leak check below is exact.
	for _, id := range ids[:capacity] {
		touch(t, m, id, 0)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()

	a := ids[capacity]
	boom := errors.New("injected read failure")
	g := d.gateRead(a)
	reader := async(func() error { return m.With(a, false, func([]byte) {}) })
	wait(t, g.arrived, "the read of A to reach the device")
	waiter := async(func() error {
		return m.With(a, false, func(p []byte) {
			if p[0] != byte(capacity+1) {
				t.Errorf("page A carries %d", p[0])
			}
		})
	})
	if !blocked(waiter) {
		t.Fatal("the waiter returned while the read was in flight")
	}
	g.release <- boom
	if err := wait(t, reader, "the failed miss"); !errors.Is(err, boom) {
		t.Fatalf("reader got %v, want the injected failure", err)
	}
	if err := wait(t, waiter, "the waiter's retry"); err != nil {
		t.Fatalf("waiter: %v", err)
	}
	if n := d.readsOf(a); n != 2 {
		t.Errorf("page A was read %d times, want 2 (the failure and the retry)", n)
	}
	if st := m.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats %+v, want 2 misses", st)
	}
	if res, free := m.Resident(), freeFrames(m.parts[0]); res != 1 || res+free != capacity {
		t.Errorf("resident %d + free %d != capacity %d: a frame leaked", res, free, capacity)
	}
}

// TestFailedWriteBackLeavesVictimDirty: a failed write-back fails the miss
// that needed the frame and leaves the victim dirty, resident and still the
// LRU tail; the retry writes it and goes through.
func TestFailedWriteBackLeavesVictimDirty(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 1, 3)
	x, y, z := ids[0], ids[1], ids[2]
	touch(t, m, x, 9)
	touch(t, m, y, 0)

	boom := errors.New("injected write failure")
	g := d.gateWrite(x)
	miss := async(func() error { return m.With(z, false, func([]byte) {}) })
	wait(t, g.arrived, "the write-back of X to reach the device")
	awaitCleanerExit(t, m.parts[0]) // it found X spoken for and Y clean
	g.release <- boom
	if err := wait(t, miss, "the miss on Z"); !errors.Is(err, boom) {
		t.Fatalf("miss got %v, want the injected failure", err)
	}
	f := frameOf(m, x)
	if f == nil || !f.dirty || !f.inLRU || m.parts[0].lruTail != f || f.io != ioNone {
		t.Fatalf("X after a failed write-back: %+v, want dirty at the LRU tail", f)
	}
	if frameOf(m, z) != nil || m.Resident() != 2 {
		t.Errorf("Z resident or pool changed after a failed eviction (resident %d)", m.Resident())
	}
	touch(t, m, z, 0)
	if frameOf(m, x) != nil || d.writesOf(x) != 2 {
		t.Errorf("retry did not write and evict X (writes %d)", d.writesOf(x))
	}
}

// cleanerAndMissInFlight sets up a full 4-frame pool whose LRU order is
// A (clean), B (dirty), C, D, and starts a miss on Z: it evicts A, starts
// the cleaner on B, and both the read of Z and the cleaner's write of B are
// held at the device.
func cleanerAndMissInFlight(t *testing.T) (m *Manager, d *gatedDisk, b storage.PageID, readZ, writeB *gate, miss <-chan error) {
	t.Helper()
	m, d, ids := gatedPool(t, 4, 1, 5)
	touch(t, m, ids[0], 0)
	touch(t, m, ids[1], 5)
	touch(t, m, ids[2], 0)
	touch(t, m, ids[3], 0)
	z := ids[4]
	readZ, writeB = d.gateRead(z), d.gateWrite(ids[1])
	miss = async(func() error { return m.With(z, false, func([]byte) {}) })
	wait(t, readZ.arrived, "the read of Z to reach the device")
	wait(t, writeB.arrived, "the cleaner's write of B to reach the device")
	return m, d, ids[1], readZ, writeB, miss
}

// TestCrashWaitsOutInFlightIO: Crash, called with a miss and a cleaner in
// flight, returns only after both have drained, and does not mistake the
// reserved frame's pin for a caller's.
func TestCrashWaitsOutInFlightIO(t *testing.T) {
	m, _, _, readZ, writeB, miss := cleanerAndMissInFlight(t)
	crash := async(m.Crash)
	if !blocked(crash) {
		t.Fatal("Crash returned with a read and a write-back in flight")
	}
	readZ.release <- nil
	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	if !blocked(crash) {
		t.Fatal("Crash returned with the cleaner's write-back in flight")
	}
	writeB.release <- nil
	if err := wait(t, crash, "Crash"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if got := m.Resident(); got != 0 {
		t.Errorf("resident = %d after Crash", got)
	}
}

// TestFlushAllWaitsOutCleaner: FlushAll returns only once the write-back
// the cleaner has in flight is done, and then every page is durable.
func TestFlushAllWaitsOutCleaner(t *testing.T) {
	m, d, b, readZ, writeB, miss := cleanerAndMissInFlight(t)
	flush := async(m.FlushAll)
	readZ.release <- nil
	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	if !blocked(flush) {
		t.Fatal("FlushAll returned with the cleaner's write-back of a dirty page in flight")
	}
	writeB.release <- nil
	if err := wait(t, flush, "FlushAll"); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	if n := d.writesOf(b); n != 1 {
		t.Errorf("B written %d times, want once (by the cleaner)", n)
	}
	buf := make([]byte, pageSize)
	if err := m.store.Read(b, buf); err != nil || buf[1] != 5 {
		t.Errorf("B's durable image after FlushAll: byte %d, err %v", buf[1], err)
	}
}

// TestCleanerWritesInPlace: the cleaner cleans the frames next in line
// without moving or evicting them.
func TestCleanerWritesInPlace(t *testing.T) {
	m, _, b, readZ, writeB, miss := cleanerAndMissInFlight(t)
	readZ.release <- nil
	writeB.release <- nil
	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	if err := m.FlushAll(); err != nil { // waits for the cleaner's write, writes nothing
		t.Fatal(err)
	}
	p := m.parts[0]
	f := frameOf(m, b)
	if f == nil || f.dirty || p.lruTail != f {
		t.Fatalf("B after cleaning: %+v, want clean at the LRU tail", f)
	}
	if st := m.Stats(); st.Evicts != 1 || st.Flushes != 1 {
		t.Errorf("stats %+v, want 1 evict (A) and 1 flush (B)", st)
	}
}

// TestPinHitDuringCheckpointWrite: a checkpoint holds no partition mutex
// across its writes, so a hit on a clean page goes through while one of
// them is held at the device.
func TestPinHitDuringCheckpointWrite(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1, 2)
	dirty, clean := ids[0], ids[1]
	touch(t, m, dirty, 3)
	touch(t, m, clean, 0)

	g := d.gateWrite(dirty)
	flush := async(m.FlushAll)
	wait(t, g.arrived, "the checkpoint write to reach the device")
	hit := async(func() error { return m.With(clean, false, func([]byte) {}) })
	if err := wait(t, hit, "a hit during the checkpoint write"); err != nil {
		t.Fatal(err)
	}
	g.release <- nil
	if err := wait(t, flush, "FlushAll"); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWriteOrderRepeats: two checkpoints of the same pool state
// issue the same write sequence — ascending page order per partition — so
// a seeded "crash at the N-th write" lands on the same page every time.
func TestCheckpointWriteOrderRepeats(t *testing.T) {
	for _, parts := range []int{1, 4} {
		var seqs [2][]storage.PageID
		for run := range seqs {
			m, d, ids := gatedPool(t, 256, parts, 48)
			r := rng.New(5)
			for i := 0; i < 200; i++ {
				touch(t, m, ids[r.Int63n(int64(len(ids)))], byte(1+i%200))
			}
			if err := m.FlushAll(); err != nil {
				t.Fatal(err)
			}
			seqs[run] = d.writeSequence()
		}
		if len(seqs[0]) == 0 || !slices.Equal(seqs[0], seqs[1]) {
			t.Errorf("P=%d: checkpoint write sequences differ:\n%v\n%v", parts, seqs[0], seqs[1])
		}
		if parts == 1 && !slices.IsSorted(seqs[0]) {
			t.Errorf("P=1: checkpoint did not write in ascending page order: %v", seqs[0])
		}
	}
}

// TestOverlapStress hammers a small pool from 8 goroutines over a device
// that sleeps 1 ms per page I/O, with a checkpointer alongside: every
// goroutine counts its own updates of every page in a byte of its own, and
// each count must survive all the evictions, cleanings and checkpoints in
// between. Run under -race this is the in-flight-frame data-race gate.
func TestOverlapStress(t *testing.T) {
	const (
		workers  = 8
		pages    = 48
		capacity = 16
		rounds   = 120
	)
	for _, parts := range []int{1, 4} {
		m, d, ids := gatedPool(t, capacity, parts, pages)
		d.delay = time.Millisecond
		var stop atomic.Bool
		var bg sync.WaitGroup
		bg.Add(2)
		go func() { // Resident never exceeds Capacity, reserved frames included.
			defer bg.Done()
			for !stop.Load() {
				if got := m.Resident(); got > capacity {
					t.Errorf("P=%d: resident %d exceeds capacity %d", parts, got, capacity)
					return
				}
				time.Sleep(200 * time.Microsecond)
			}
		}()
		go func() {
			defer bg.Done()
			for !stop.Load() {
				if err := m.FlushAll(); err != nil {
					t.Errorf("P=%d: FlushAll: %v", parts, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()

		var counts [workers][pages]byte
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rng.New(uint64(w) + 1)
				for i := 0; i < rounds; i++ {
					n := int(r.Int63n(pages))
					write := r.Bernoulli(0.5)
					err := m.With(ids[n], write, func(p []byte) {
						if p[0] != byte(n+1) {
							t.Errorf("page %d carries content of page %d", n, int(p[0])-1)
						}
						if p[8+w] != counts[w][n] {
							t.Errorf("P=%d: worker %d's count on page %d is %d, want %d", parts, w, n, p[8+w], counts[w][n])
						}
						if write {
							p[8+w]++
						}
					})
					if err != nil {
						t.Errorf("P=%d: %v", parts, err)
						return
					}
					if write {
						counts[w][n]++
					}
				}
			}()
		}
		wg.Wait()
		stop.Store(true)
		bg.Wait()

		if err := m.FlushAll(); err != nil {
			t.Fatal(err)
		}
		st := m.Stats()
		if st.Accesses() != workers*rounds {
			t.Errorf("P=%d: %d accesses counted, want %d", parts, st.Accesses(), workers*rounds)
		}
		if reads, _ := m.store.IOCounts(); st.Misses != reads {
			t.Errorf("P=%d: %d misses but %d store reads", parts, st.Misses, reads)
		}
		if n := d.maxInFlight(); n < 2 {
			t.Errorf("P=%d: at most %d page I/O in flight at once: nothing overlapped", parts, n)
		}
		// The durable images carry every count once the pool is flushed.
		buf := make([]byte, pageSize)
		for n, id := range ids {
			if err := m.store.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			for w := range counts {
				if buf[8+w] != counts[w][n] {
					t.Errorf("P=%d: durable count of worker %d on page %d is %d, want %d", parts, w, n, buf[8+w], counts[w][n])
				}
			}
		}
	}
}

// fakeLog is the write-ahead log as the buffer manager sees it: a size the
// test sets, a durable length a real force advances to that size, and a
// record of what ForceTo was asked for.
type fakeLog struct {
	size atomic.Int64

	mu      sync.Mutex
	durable int64
	asked   []int64 // every ForceTo argument, in call order
	forces  int     // calls that found their offset past the durable length
	fail    error   // returned by such calls while non-nil
}

func (l *fakeLog) Size() int64 { return l.size.Load() }

func (l *fakeLog) ForceTo(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.asked = append(l.asked, off)
	if off <= l.durable {
		return nil
	}
	if l.fail != nil {
		return l.fail
	}
	l.forces++
	l.durable = l.size.Load()
	return nil
}

// commit stands for a committer's force: everything appended so far is
// durable.
func (l *fakeLog) commit() {
	l.mu.Lock()
	l.durable = l.size.Load()
	l.mu.Unlock()
}

func (l *fakeLog) state() (durable int64, asked []int64, forces int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable, slices.Clone(l.asked), l.forces
}

// logged dirties page id (byte 1 = v) the way a logging writer does: the
// record is appended first — the log grows to size — and the page is
// unpinned dirty after.
func logged(t *testing.T, m *Manager, l *fakeLog, id storage.PageID, v byte, size int64) {
	t.Helper()
	l.size.Store(size)
	touch(t, m, id, v)
}

// TestColdDirtyVictimForcesNothing: the victim was last dirtied before the
// log's durable point, so its write-back asks for an offset the log already
// has and no force happens; a clean unpin does not move the offset.
func TestColdDirtyVictimForcesNothing(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 1, 3)
	l := &fakeLog{}
	m.SetLog(l)
	x, y, z := ids[0], ids[1], ids[2]
	logged(t, m, l, x, 7, 100)
	l.commit()
	l.size.Store(250) // other writers' records, nothing to do with X
	touch(t, m, y, 0)
	touch(t, m, x, 0) // a read of X: its offset stays 100
	touch(t, m, y, 0)
	touch(t, m, z, 0) // evicts X
	if frameOf(m, x) != nil || d.writesOf(x) != 1 {
		t.Fatalf("X resident or written %d times, want evicted after one write", d.writesOf(x))
	}
	if durable, asked, forces := l.state(); forces != 0 || !slices.Equal(asked, []int64{100}) || durable != 100 {
		t.Errorf("asked %v, %d forces, durable %d: want one ForceTo(100) and no force", asked, forces, durable)
	}
}

// TestWriteBackForcesOffsetOfSlippedInChange: a pinner changes the victim
// after writeBack has marked it busy and before writeBack gets the content
// latch. The image written carries that change, so the offset forced must be
// the pinner's, not the one the frame had when it was picked.
func TestWriteBackForcesOffsetOfSlippedInChange(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 1, 3)
	l := &fakeLog{}
	m.SetLog(l)
	x, y, z := ids[0], ids[1], ids[2]
	logged(t, m, l, x, 7, 100)
	touch(t, m, y, 0)

	d.onWrite = func(id storage.PageID) {
		if durable, _, _ := l.state(); id == x && durable < 300 {
			t.Errorf("X reached the device with the log durable to %d, its change logged up to 300", durable)
		}
	}
	fx := frameOf(m, x)
	fx.contentMu.Lock() // where the pinner's latch will be: writeBack queues behind it
	miss := async(func() error { return m.With(z, false, func([]byte) {}) })
	p := m.parts[0]
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		p.mu.Lock()
		busy := fx.io == ioEvict
		p.mu.Unlock()
		if busy {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the evictor never picked X")
		}
	}
	if _, asked, _ := l.state(); len(asked) != 0 {
		t.Fatalf("ForceTo(%v) before the content latch was taken", asked)
	}
	// The rest of the pinner's Pin ... Unpin(dirty), its record logged between.
	if f, err := m.pin(x); err != nil || f != fx {
		t.Fatalf("pin of X: %v, %v", f, err)
	}
	fx.data[1] = 9
	l.size.Store(300)
	m.noteLog(fx)
	fx.contentMu.Unlock()
	m.unpin(fx, true)

	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	// X came out of the write dirty again (the pinner's unpin followed the
	// mark-clean), so the cleaner may write it a second time.
	awaitCleanerExit(t, p)
	if _, asked, forces := l.state(); forces != 1 || len(asked) == 0 || slices.Min(asked) != 300 {
		t.Errorf("asked %v, %d forces: want ForceTo(300) and nothing less, one force", asked, forces)
	}
	buf := make([]byte, pageSize)
	if err := m.store.Read(x, buf); err != nil || buf[1] != 9 {
		t.Errorf("X's durable image: byte %d, err %v, want the pinner's 9", buf[1], err)
	}
	if frameOf(m, x) == nil || frameOf(m, y) != nil {
		t.Error("want X resident (pinned during its write) and Y evicted in its place")
	}
}

// TestFailedForceLeavesVictimDirty: a WAL-rule force that fails is a
// write-back that fails — nothing reaches the device, the miss gets the
// error, the victim stays dirty at the LRU tail — and the retry goes through.
func TestFailedForceLeavesVictimDirty(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 1, 3)
	boom := errors.New("injected force failure")
	l := &fakeLog{fail: boom}
	m.SetLog(l)
	x, y, z := ids[0], ids[1], ids[2]
	logged(t, m, l, x, 9, 100)
	touch(t, m, y, 0)

	if err := m.With(z, false, func([]byte) {}); !errors.Is(err, boom) {
		t.Fatalf("miss got %v, want the injected failure", err)
	}
	awaitCleanerExit(t, m.parts[0])
	f := frameOf(m, x)
	if f == nil || !f.dirty || !f.inLRU || m.parts[0].lruTail != f || f.io != ioNone {
		t.Fatalf("X after a failed force: %+v, want dirty at the LRU tail", f)
	}
	if d.writesOf(x) != 0 || frameOf(m, z) != nil || m.Resident() != 2 {
		t.Errorf("X written %d times, resident %d: a failed force must change nothing", d.writesOf(x), m.Resident())
	}
	l.mu.Lock()
	l.fail = nil
	l.mu.Unlock()
	touch(t, m, z, 0)
	if frameOf(m, x) != nil || d.writesOf(x) != 1 {
		t.Errorf("retry did not write and evict X (writes %d)", d.writesOf(x))
	}
}

// TestEveryWriteBackKeepsTheWALRule: eviction, the cleaner and FlushAll are
// one path — whichever writes a page first forces the log to that page's own
// offset, and pages nobody dirtied are not the log's business.
func TestEveryWriteBackKeepsTheWALRule(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1, 6)
	l := &fakeLog{}
	m.SetLog(l)
	offset := map[storage.PageID]int64{}
	d.onWrite = func(id storage.PageID) {
		if durable, _, _ := l.state(); durable < offset[id] {
			t.Errorf("page %d reached the device with the log durable to %d of the %d it needs", id, durable, offset[id])
		}
	}
	for i, id := range ids[:4] {
		offset[id] = int64(10 * (i + 1))
		logged(t, m, l, id, byte(i+1), offset[id])
	}
	// A miss on a full pool of dirty frames: the evictor writes the LRU
	// tail, the cleaner the frames behind it, between them all four.
	touch(t, m, ids[4], 0)
	awaitCleanerExit(t, m.parts[0])
	_, asked, _ := l.state()
	slices.Sort(asked)
	if !slices.Equal(asked, []int64{10, 20, 30, 40}) {
		t.Errorf("evictor and cleaner asked for %v, want each frame's own offset once", asked)
	}

	// A checkpoint writes in page order, not in the order of dirtying: the
	// earlier page carries the later offset, and forcing for it covers both.
	offset[ids[4]], offset[ids[2]] = 50, 60
	logged(t, m, l, ids[4], 5, 50)
	logged(t, m, l, ids[2], 6, 60)
	l.size.Store(70)
	if err := m.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if _, asked, forces := l.state(); !slices.Equal(asked[4:], []int64{60, 50}) || forces != 2 {
		t.Errorf("FlushAll asked for %v, %d forces in all: want [60 50] and one force per phase", asked[4:], forces)
	}
	if seq := d.writeSequence(); len(seq) != 6 || !slices.Equal(seq[4:], []storage.PageID{ids[2], ids[4]}) {
		t.Errorf("write sequence %v, want four write-backs and then the checkpoint's two", seq)
	}
}
