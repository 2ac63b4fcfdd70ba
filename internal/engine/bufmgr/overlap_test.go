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
	writeErr error // returned by every data-area write while non-nil
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
	failed := d.writeErr
	d.mu.Unlock()
	if k.write && failed != nil {
		return failed
	}
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

// failWrites makes every data-area write from now on fail with err.
func (d *gatedDisk) failWrites(err error) {
	d.mu.Lock()
	d.writeErr = err
	d.mu.Unlock()
}

// totalWrites counts the data-area writes issued so far.
func (d *gatedDisk) totalWrites() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.writeLog)
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

// gatedPool builds a pool of the given capacity over a gated disk holding n
// pages; page i's durable image starts with byte i+1. No
// page is resident.
func gatedPool(t *testing.T, capacity, n int) (*Manager, *gatedDisk, []storage.PageID) {
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
	return New(s, capacity), d, ids
}

// touch pins and unpins page id, dirtying it (byte 1 = v) when v != 0.
func touch(t *testing.T, m *Manager, id storage.PageID, v byte) {
	t.Helper()
	if err := with(m, id, v != 0, func(p []byte) {
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

// lockPool takes m.mu for a test and, holding it, checks the invariant
// ReadRecords' latch-free read of an idle frame rests on (checkLatches).
func lockPool(t testing.TB, m *Manager) {
	t.Helper()
	m.mu.Lock()
	checkLatches(t, m)
}

// checkLatches fails the test if a frame's content latch is held while the
// frame is neither pinned nor being written back: only a pinner and a
// write-back ever hold it. Callers hold m.mu, under which a frame's latch
// is tried as ReadRecords and Peek try it.
func checkLatches(t testing.TB, m *Manager) {
	t.Helper()
	for _, f := range m.frames {
		if f == nil || f.pins > 0 || f.writing() {
			continue
		}
		if !f.contentMu.TryLock() {
			t.Errorf("page %d: content latch held with no pin and no write-back in flight (io %d)", f.id, f.io)
			continue
		}
		f.contentMu.Unlock()
	}
}

// awaitCleanAhead returns once no frame of m is being written back in place,
// so that what follows is the foreground path's doing alone.
func awaitCleanAhead(t *testing.T, m *Manager) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		lockPool(t, m)
		cleaning := false
		for _, f := range m.frames {
			cleaning = cleaning || f != nil && f.io == ioClean
		}
		m.mu.Unlock()
		if !cleaning {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the clean-ahead writes did not end")
		}
	}
}

// lruOrder lists m's unpinned frames from the LRU tail to the MRU end.
func lruOrder(t testing.TB, m *Manager) []storage.PageID {
	t.Helper()
	lockPool(t, m)
	defer m.mu.Unlock()
	var ids []storage.PageID
	for f := m.lruTail; f != nil; f = f.prev {
		ids = append(ids, f.id)
	}
	return ids
}

// frameOf returns page id's frame, or nil.
func frameOf(t testing.TB, m *Manager, id storage.PageID) *frame {
	t.Helper()
	lockPool(t, m)
	defer m.mu.Unlock()
	return m.lookup(id)
}

// freeFrames counts the pool's unused frames. Only meaningful for a
// capacity of at most one chunk, once the chunk has been carved.
func freeFrames(t testing.TB, m *Manager) int {
	t.Helper()
	lockPool(t, m)
	defer m.mu.Unlock()
	n := len(m.frameChunk)
	for f := m.freeFrames; f != nil; f = f.next {
		n++
	}
	return n
}

// TestHitProceedsDuringGatedRead: a hit on page B returns while a read of
// page A is held at the device.
func TestHitProceedsDuringGatedRead(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 2)
	a, b := ids[0], ids[1]
	touch(t, m, b, 0)

	g := d.gateRead(a)
	miss := async(func() error { return with(m, a, false, func([]byte) {}) })
	wait(t, g.arrived, "the read of A to reach the device")

	hit := async(func() error {
		return with(m, b, false, func(p []byte) {
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
	m, d, ids := gatedPool(t, 4, 1)
	a := ids[0]
	g := d.gateRead(a)
	see := func() error {
		return with(m, a, false, func(p []byte) {
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
	m, d, ids := gatedPool(t, 2, 3)
	x, y, z := ids[0], ids[1], ids[2]
	touch(t, m, x, 7) // LRU tail, dirty
	touch(t, m, y, 0) // next, clean

	g := d.gateWrite(x)
	miss := async(func() error { return with(m, z, false, func([]byte) {}) })
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

	if f := frameOf(t, m, x); f == nil || f.dirty {
		t.Errorf("X after its write-back: frame %v, want resident and clean", f)
	}
	if frameOf(t, m, y) != nil {
		t.Error("Y is still resident: the evictor did not take the next victim")
	}
	if frameOf(t, m, z) == nil {
		t.Error("Z is not resident")
	}
	if st := m.Stats(); st.Evicts != 1 || st.Flushes != 1 {
		t.Errorf("stats %+v, want 1 evict and 1 flush", st)
	}
	if n := d.writesOf(x); n != 1 {
		t.Errorf("X written %d times, want 1", n)
	}
	touch(t, m, x, 0)
	if err := with(m, x, false, func(p []byte) {
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
	m, d, ids := gatedPool(t, capacity, capacity+1)
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
	reader := async(func() error { return with(m, a, false, func([]byte) {}) })
	wait(t, g.arrived, "the read of A to reach the device")
	waiter := async(func() error {
		return with(m, a, false, func(p []byte) {
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
	if res, free := m.Resident(), freeFrames(t, m); res != 1 || res+free != capacity {
		t.Errorf("resident %d + free %d != capacity %d: a frame leaked", res, free, capacity)
	}
}

// TestFailedWriteBackLeavesVictimDirty: a failed write-back fails the miss
// that needed the frame and leaves the victim dirty, resident and still the
// LRU tail; the retry writes it and goes through. On a device whose writes
// all fail, a miss whose victim and clean-ahead run are dirty gets the
// device's error, every frame stays dirty, and nothing keeps writing.
func TestFailedWriteBackLeavesVictimDirty(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 3)
	x, y, z := ids[0], ids[1], ids[2]
	touch(t, m, x, 9)
	touch(t, m, y, 0)

	boom := errors.New("injected write failure")
	g := d.gateWrite(x)
	miss := async(func() error { return with(m, z, false, func([]byte) {}) })
	wait(t, g.arrived, "the write-back of X to reach the device")
	awaitCleanAhead(t, m) // X is the victim, left to the miss, and Y is clean
	g.release <- boom
	if err := wait(t, miss, "the miss on Z"); !errors.Is(err, boom) {
		t.Fatalf("miss got %v, want the injected failure", err)
	}
	f := frameOf(t, m, x)
	if f == nil || !f.dirty || !f.inLRU || m.lruTail != f || f.io != ioNone {
		t.Fatalf("X after a failed write-back: %+v, want dirty at the LRU tail", f)
	}
	if frameOf(t, m, z) != nil || m.Resident() != 2 {
		t.Errorf("Z resident or pool changed after a failed eviction (resident %d)", m.Resident())
	}
	touch(t, m, z, 0)
	if frameOf(t, m, x) != nil || d.writesOf(x) != 2 {
		t.Errorf("retry did not write and evict X (writes %d)", d.writesOf(x))
	}

	const capacity = 4
	m, d, ids = gatedPool(t, capacity, capacity+1)
	for i, id := range ids[:capacity] {
		touch(t, m, id, byte(10+i))
	}
	d.failWrites(boom)
	for round := 1; round <= 2; round++ { // the second miss finds the run dirty again
		miss := async(func() error { return with(m, ids[capacity], false, func([]byte) {}) })
		if err := wait(t, miss, "a miss on a device whose writes fail"); !errors.Is(err, boom) {
			t.Fatalf("miss got %v, want the device's error", err)
		}
		awaitCleanAhead(t, m)
		lockPool(t, m)
		for _, f := range m.frames {
			if f != nil && (!f.dirty || f.io != ioNone || !f.inLRU) {
				t.Errorf("page %d after failed write-backs: dirty %v, io %d, listed %v; want dirty, idle, listed", f.id, f.dirty, f.io, f.inLRU)
			}
		}
		m.mu.Unlock()
		if frameOf(t, m, ids[capacity]) != nil || m.Resident() != capacity {
			t.Fatalf("the miss got a frame (resident %d) though no victim could be written", m.Resident())
		}
		if n := d.totalWrites(); n != round*capacity {
			t.Errorf("%d writes issued after %d misses, want %d: the victim's and each other frame's once a miss", n, round, round*capacity)
		}
	}
	n := d.totalWrites()
	time.Sleep(20 * time.Millisecond)
	if again := d.totalWrites(); again != n {
		t.Errorf("%d writes issued after the misses returned: something keeps retrying", again-n)
	}
	d.failWrites(nil)
	touch(t, m, ids[capacity], 0)
	if frameOf(t, m, ids[0]) != nil {
		t.Error("the victim was not evicted once the device recovered")
	}
}

// cleanAheadAndMissInFlight sets up a full 4-frame pool whose LRU order is
// A (clean), B (dirty), C (dirty), D, and starts a miss on Z: it evicts A,
// starts clean-ahead writes of B and C, and the read of Z and both writes
// are held at the device.
func cleanAheadAndMissInFlight(t *testing.T) (m *Manager, d *gatedDisk, ids []storage.PageID, readZ *gate, writes []*gate, miss <-chan error) {
	t.Helper()
	m, d, ids = gatedPool(t, 4, 5)
	touch(t, m, ids[0], 0)
	touch(t, m, ids[1], 5)
	touch(t, m, ids[2], 6)
	touch(t, m, ids[3], 0)
	z := ids[4]
	readZ = d.gateRead(z)
	writes = []*gate{d.gateWrite(ids[1]), d.gateWrite(ids[2])}
	miss = async(func() error { return with(m, z, false, func([]byte) {}) })
	wait(t, readZ.arrived, "the read of Z to reach the device")
	for _, g := range writes {
		wait(t, g.arrived, "a clean-ahead write to reach the device")
	}
	return m, d, ids, readZ, writes, miss
}

// TestCrashWaitsOutInFlightIO: Crash, called with a miss and two clean-ahead
// writes in flight, returns only after all of them have drained, and does
// not mistake the reserved frame's pin for a caller's.
func TestCrashWaitsOutInFlightIO(t *testing.T) {
	m, _, _, readZ, writes, miss := cleanAheadAndMissInFlight(t)
	crash := async(m.Crash)
	if !blocked(crash) {
		t.Fatal("Crash returned with a read and write-backs in flight")
	}
	readZ.release <- nil
	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	for _, g := range writes {
		if !blocked(crash) {
			t.Fatal("Crash returned with a clean-ahead write in flight")
		}
		g.release <- nil
	}
	if err := wait(t, crash, "Crash"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if got := m.Resident(); got != 0 {
		t.Errorf("resident = %d after Crash", got)
	}
}

// TestFlushAllWaitsOutCleaner: FlushAll returns only once every clean-ahead
// write in flight is done, and then every page's durable image is its latest.
func TestFlushAllWaitsOutCleaner(t *testing.T) {
	m, d, ids, readZ, writes, miss := cleanAheadAndMissInFlight(t)
	flush := async(m.FlushAll)
	readZ.release <- nil
	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	for _, g := range writes {
		if !blocked(flush) {
			t.Fatal("FlushAll returned with a clean-ahead write of a dirty page in flight")
		}
		g.release <- nil
	}
	if err := wait(t, flush, "FlushAll"); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	for _, id := range ids[1:3] {
		if n := d.writesOf(id); n != 1 {
			t.Errorf("page %d written %d times, want once (by clean-ahead)", id, n)
		}
	}
	latest := []byte{0, 5, 6, 0, 0} // byte 1 of A, B, C, D and Z as last set
	buf := make([]byte, pageSize)
	for i, id := range ids {
		if err := m.store.Read(id, buf); err != nil || buf[0] != byte(i+1) || buf[1] != latest[i] {
			t.Errorf("page %d's durable image after FlushAll starts %v (err %v), want [%d %d]", id, buf[:2], err, i+1, latest[i])
		}
	}
}

// TestCleanerWritesInPlace: clean-ahead cleans the frames next in line
// without moving or evicting them.
func TestCleanerWritesInPlace(t *testing.T) {
	m, _, ids, readZ, writes, miss := cleanAheadAndMissInFlight(t)
	readZ.release <- nil
	for _, g := range writes {
		g.release <- nil
	}
	if err := wait(t, miss, "the miss on Z"); err != nil {
		t.Fatal(err)
	}
	awaitCleanAhead(t, m)
	for _, id := range ids[1:3] {
		if f := frameOf(t, m, id); f == nil || f.dirty {
			t.Fatalf("page %d after cleaning: %+v, want resident and clean", id, f)
		}
	}
	if got, want := lruOrder(t, m), ids[1:]; !slices.Equal(got, want) {
		t.Errorf("LRU order from the tail %v, want %v", got, want)
	}
	if st := m.Stats(); st.Evicts != 1 || st.Flushes != 2 {
		t.Errorf("stats %+v, want 1 evict (A) and 2 flushes (B, C)", st)
	}
}

// TestCleanAheadWritesOverlap: a miss that finds k dirty frames next in line
// behind a clean victim has all k clean-ahead writes in flight at once, and
// does not wait for them. The writes change nothing the reference stream
// sees: LRU order, residency and counts are those of the same pins with
// nothing dirty, which is plain LRU, as under one serial cleaner.
func TestCleanAheadWritesOverlap(t *testing.T) {
	const k, capacity = 5, 8
	run := func(dirty bool) (*Manager, []storage.PageID) {
		m, d, ids := gatedPool(t, capacity, capacity+2)
		for i, id := range ids[:capacity] {
			v := byte(0)
			if dirty && i >= 1 && i <= k {
				v = byte(20 + i)
			}
			touch(t, m, id, v)
		}
		var gates []*gate
		if dirty {
			for _, id := range ids[1 : k+1] {
				gates = append(gates, d.gateWrite(id))
			}
		}
		miss := async(func() error { return with(m, ids[capacity], false, func([]byte) {}) })
		for _, g := range gates {
			wait(t, g.arrived, "a clean-ahead write to reach the device")
		}
		if err := wait(t, miss, "the miss, with the clean-ahead writes held"); err != nil {
			t.Fatal(err)
		}
		if dirty {
			if n := d.maxInFlight(); n < k {
				t.Errorf("at most %d page I/Os in flight with %d clean-ahead writes held", n, k)
			}
			for _, g := range gates {
				g.release <- nil
			}
			awaitCleanAhead(t, m)
			if st := m.Stats(); st.Flushes != k {
				t.Errorf("%d flushes, want the %d clean-ahead writes", st.Flushes, k)
			}
		}
		touch(t, m, ids[3], 0)
		touch(t, m, ids[capacity+1], 0)
		touch(t, m, ids[1], 0)
		return m, ids
	}
	got, ids := run(true)
	want, _ := run(false)
	if g, w := lruOrder(t, got), lruOrder(t, want); !slices.Equal(g, w) {
		t.Errorf("LRU order from the tail %v, want plain LRU's %v", g, w)
	}
	for _, id := range ids {
		if g, w := frameOf(t, got, id) != nil, frameOf(t, want, id) != nil; g != w {
			t.Errorf("page %d resident %v, plain LRU says %v", id, g, w)
		}
	}
	gs, ws := got.Stats(), want.Stats()
	if gs.Hits != ws.Hits || gs.Misses != ws.Misses || gs.Evicts != ws.Evicts {
		t.Errorf("stats %+v, want plain LRU's hits, misses and evicts %+v", gs, ws)
	}
}

// TestPinHitDuringCheckpointWrite: a checkpoint holds no pool mutex
// across its writes, so a hit on a clean page goes through while one of
// them is held at the device.
func TestPinHitDuringCheckpointWrite(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 2)
	dirty, clean := ids[0], ids[1]
	touch(t, m, dirty, 3)
	touch(t, m, clean, 0)

	g := d.gateWrite(dirty)
	flush := async(m.FlushAll)
	wait(t, g.arrived, "the checkpoint write to reach the device")
	hit := async(func() error { return with(m, clean, false, func([]byte) {}) })
	if err := wait(t, hit, "a hit during the checkpoint write"); err != nil {
		t.Fatal(err)
	}
	g.release <- nil
	if err := wait(t, flush, "FlushAll"); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointWriteOrderRepeats: two checkpoints of the same pool state
// issue the same write sequence — ascending page order — so a seeded "crash
// at the N-th write" lands on the same page every time.
func TestCheckpointWriteOrderRepeats(t *testing.T) {
	var seqs [2][]storage.PageID
	for run := range seqs {
		m, d, ids := gatedPool(t, 256, 48)
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
		t.Errorf("checkpoint write sequences differ:\n%v\n%v", seqs[0], seqs[1])
	}
	if !slices.IsSorted(seqs[0]) {
		t.Errorf("checkpoint did not write in ascending page order: %v", seqs[0])
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
	m, d, ids := gatedPool(t, capacity, pages)
	d.delay = time.Millisecond
	var stop atomic.Bool
	var bg sync.WaitGroup
	bg.Add(2)
	go func() { // Resident never exceeds Capacity, reserved frames included.
		defer bg.Done()
		for !stop.Load() {
			if got := m.Resident(); got > capacity {
				t.Errorf("resident %d exceeds capacity %d", got, capacity)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	go func() {
		defer bg.Done()
		for !stop.Load() {
			if err := m.FlushAll(); err != nil {
				t.Errorf("FlushAll: %v", err)
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
				err := with(m, ids[n], write, func(p []byte) {
					if p[0] != byte(n+1) {
						t.Errorf("page %d carries content of page %d", n, int(p[0])-1)
					}
					if p[8+w] != counts[w][n] {
						t.Errorf("worker %d's count on page %d is %d, want %d", w, n, p[8+w], counts[w][n])
					}
					if write {
						p[8+w]++
					}
				})
				if err != nil {
					t.Error(err)
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
		t.Errorf("%d accesses counted, want %d", st.Accesses(), workers*rounds)
	}
	if reads := m.store.Stats().Reads; st.Misses != reads {
		t.Errorf("%d misses but %d store reads", st.Misses, reads)
	}
	if n := d.maxInFlight(); n < 2 {
		t.Errorf("at most %d page I/O in flight at once: nothing overlapped", n)
	}
	// The durable images carry every count once the pool is flushed.
	buf := make([]byte, pageSize)
	for n, id := range ids {
		if err := m.store.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		for w := range counts {
			if buf[8+w] != counts[w][n] {
				t.Errorf("durable count of worker %d on page %d is %d, want %d", w, n, buf[8+w], counts[w][n])
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
	m, d, ids := gatedPool(t, 2, 3)
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
	if frameOf(t, m, x) != nil || d.writesOf(x) != 1 {
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
	m, d, ids := gatedPool(t, 2, 3)
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
	fx := frameOf(t, m, x)
	// The latch stands where the pinner's will be, so writeBack queues
	// behind it. Until the evictor marks X busy that is a latch on an idle
	// frame, a state the engine never makes, so the pool is polled without
	// lockPool's check until then.
	fx.contentMu.Lock()
	miss := async(func() error { return with(m, z, false, func([]byte) {}) })
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		m.mu.Lock()
		busy := fx.io == ioEvict
		if busy {
			checkLatches(t, m)
		}
		m.mu.Unlock()
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
	awaitCleanAhead(t, m)
	if _, asked, forces := l.state(); forces != 1 || len(asked) == 0 || slices.Min(asked) != 300 {
		t.Errorf("asked %v, %d forces: want ForceTo(300) and nothing less, one force", asked, forces)
	}
	buf := make([]byte, pageSize)
	if err := m.store.Read(x, buf); err != nil || buf[1] != 9 {
		t.Errorf("X's durable image: byte %d, err %v, want the pinner's 9", buf[1], err)
	}
	if frameOf(t, m, x) == nil || frameOf(t, m, y) != nil {
		t.Error("want X resident (pinned during its write) and Y evicted in its place")
	}
}

// TestFailedForceLeavesVictimDirty: a WAL-rule force that fails is a
// write-back that fails — nothing reaches the device, the miss gets the
// error, the victim stays dirty at the LRU tail — and the retry goes through.
func TestFailedForceLeavesVictimDirty(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 3)
	boom := errors.New("injected force failure")
	l := &fakeLog{fail: boom}
	m.SetLog(l)
	x, y, z := ids[0], ids[1], ids[2]
	logged(t, m, l, x, 9, 100)
	touch(t, m, y, 0)

	if err := with(m, z, false, func([]byte) {}); !errors.Is(err, boom) {
		t.Fatalf("miss got %v, want the injected failure", err)
	}
	awaitCleanAhead(t, m)
	f := frameOf(t, m, x)
	if f == nil || !f.dirty || !f.inLRU || m.lruTail != f || f.io != ioNone {
		t.Fatalf("X after a failed force: %+v, want dirty at the LRU tail", f)
	}
	if d.writesOf(x) != 0 || frameOf(t, m, z) != nil || m.Resident() != 2 {
		t.Errorf("X written %d times, resident %d: a failed force must change nothing", d.writesOf(x), m.Resident())
	}
	l.mu.Lock()
	l.fail = nil
	l.mu.Unlock()
	touch(t, m, z, 0)
	if frameOf(t, m, x) != nil || d.writesOf(x) != 1 {
		t.Errorf("retry did not write and evict X (writes %d)", d.writesOf(x))
	}
}

// TestEveryWriteBackKeepsTheWALRule: eviction, the cleaner and FlushAll are
// one path — whichever writes a page first forces the log to that page's own
// offset, and pages nobody dirtied are not the log's business.
func TestEveryWriteBackKeepsTheWALRule(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 6)
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
	awaitCleanAhead(t, m)
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

// tapEvents records the events the manager taps, in order.
type tapEvents struct {
	mu  sync.Mutex
	evs []Event
}

func tapInto(m *Manager) *tapEvents {
	r := &tapEvents{}
	m.SetTap(func(_ storage.PageID, _ int, ev Event) {
		r.mu.Lock()
		r.evs = append(r.evs, ev)
		r.mu.Unlock()
	})
	return r
}

func (r *tapEvents) get() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.evs)
}

// awaitRead returns once page id has no read in flight.
func awaitRead(t *testing.T, m *Manager, id storage.PageID) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		lockPool(t, m)
		f := m.lookup(id)
		busy := f != nil && f.io == ioRead
		m.mu.Unlock()
		if !busy {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("the read of page %d never finished", id)
		}
	}
}

// TestPrefetchReturnsBeforeTheRead: Prefetch reserves the frame, counts and
// taps the read-ahead, and returns while the read is held at the device.
func TestPrefetchReturnsBeforeTheRead(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1)
	taps := tapInto(m)
	a := ids[0]
	g := d.gateRead(a)
	done := async(func() error { m.Prefetch([]storage.PageID{a}); return nil })
	wait(t, g.arrived, "the read-ahead of A to reach the device")
	wait(t, done, "Prefetch to return with the read held")
	if f := frameOf(t, m, a); f == nil || f.io != ioRead || f.pins != 0 || !f.ahead {
		t.Fatalf("A's frame during its read-ahead: %+v, want reserved, reading, unpinned", f)
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats %+v, want the read-ahead counted as the one miss", st)
	}
	if evs := taps.get(); !slices.Equal(evs, []Event{ReadAhead}) {
		t.Errorf("tapped %v, want one ReadAhead", evs)
	}
	g.release <- nil
	awaitRead(t, m, a)
}

// TestTwoReadAheadsMakeOneRead: a page whose read-ahead is in flight, asked
// for again in the same call and in another, is read once.
func TestTwoReadAheadsMakeOneRead(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1)
	a := ids[0]
	g := d.gateRead(a)
	m.Prefetch([]storage.PageID{a, a})
	wait(t, g.arrived, "the read-ahead of A to reach the device")
	m.Prefetch([]storage.PageID{a})
	g.release <- nil
	awaitRead(t, m, a)
	m.Prefetch([]storage.PageID{a})
	if n := d.readsOf(a); n != 1 {
		t.Errorf("A read %d times, want 1", n)
	}
	if st := m.Stats(); st.Misses != 1 {
		t.Errorf("stats %+v, want one miss", st)
	}
}

// TestClaimWaitsAndCountsNothing: a pin of a page whose read-ahead is in
// flight waits for the read, sees its bytes and is counted nowhere — the
// read-ahead was the page's miss; the next pin is a hit.
func TestClaimWaitsAndCountsNothing(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1)
	taps := tapInto(m)
	a := ids[0]
	g := d.gateRead(a)
	m.Prefetch([]storage.PageID{a})
	wait(t, g.arrived, "the read-ahead of A to reach the device")
	claim := async(func() error {
		return with(m, a, false, func(p []byte) {
			if p[0] != 1 {
				t.Errorf("page A carries %d", p[0])
			}
		})
	})
	if !blocked(claim) {
		t.Fatal("a pin of a page being read ahead returned before the read did")
	}
	g.release <- nil
	if err := wait(t, claim, "the claim of A"); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats after the claim %+v, want the read-ahead's miss alone", st)
	}
	if f := frameOf(t, m, a); f == nil || f.ahead || m.lruHead != f {
		t.Errorf("A after its claim: %+v, want claimed, at MRU", f)
	}
	touch(t, m, a, 0)
	if st := m.Stats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("stats after a second pin %+v, want 1 miss and 1 hit", st)
	}
	if evs := taps.get(); !slices.Equal(evs, []Event{ReadAhead, Claim, Hit}) {
		t.Errorf("tapped %v, want ReadAhead, Claim, Hit", evs)
	}
	if n := d.readsOf(a); n != 1 {
		t.Errorf("A read %d times, want 1", n)
	}
}

// TestPrefetchOfResidentPageIsInvisible: a resident page costs Prefetch a
// map probe: no count, no tap, no LRU move, no read.
func TestPrefetchOfResidentPageIsInvisible(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 2)
	a, b := ids[0], ids[1]
	touch(t, m, a, 0)
	touch(t, m, b, 0)
	taps := tapInto(m)
	before := m.Stats()
	m.Prefetch([]storage.PageID{a})
	if m.lruTail != frameOf(t, m, a) || m.lruHead != frameOf(t, m, b) {
		t.Error("Prefetch moved a resident page")
	}
	if st := m.Stats(); st != before {
		t.Errorf("stats %+v after Prefetch of a resident page, want %+v", st, before)
	}
	if evs := taps.get(); len(evs) != 0 {
		t.Errorf("tapped %v for a resident page", evs)
	}
	if n := d.readsOf(a); n != 1 {
		t.Errorf("A read %d times, want 1", n)
	}
}

// TestReadAheadInFlightIsNeverVictim: the frame of a read-ahead is unpinned
// and on the LRU list from its reservation, but while its read is in flight
// an evictor passes it over, and a reservation that finds nothing else
// waits for the read to end.
func TestReadAheadInFlightIsNeverVictim(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 4)
	a, b, c, e := ids[0], ids[1], ids[2], ids[3]
	g := d.gateRead(a)
	m.Prefetch([]storage.PageID{a}) // the LRU tail from here on
	wait(t, g.arrived, "the read-ahead of A to reach the device")
	touch(t, m, b, 0)
	touch(t, m, c, 0) // evicts B, not A
	if frameOf(t, m, b) != nil || frameOf(t, m, a) == nil {
		t.Fatal("the evictor took the frame being read ahead, or kept B")
	}
	fc, err := m.pin(c)
	if err != nil {
		t.Fatal(err)
	}
	miss := async(func() error { return with(m, e, false, func([]byte) {}) })
	if !blocked(miss) {
		t.Fatal("a miss evicted a frame whose read-ahead was in flight")
	}
	g.release <- nil
	if err := wait(t, miss, "the miss on E"); err != nil {
		t.Fatal(err)
	}
	m.unpin(fc, false)
	if frameOf(t, m, a) != nil || frameOf(t, m, e) == nil {
		t.Error("want A, read and unclaimed, evicted for E")
	}
}

// TestUnclaimedReadAheadAgesOut: a read-ahead no pin claims stays where its
// reservation put it and is evicted in LRU order like any other frame.
func TestUnclaimedReadAheadAgesOut(t *testing.T) {
	m, d, ids := gatedPool(t, 2, 3)
	a, b, c := ids[0], ids[1], ids[2]
	m.Prefetch([]storage.PageID{a})
	awaitRead(t, m, a)
	touch(t, m, b, 0)
	touch(t, m, c, 0)
	if frameOf(t, m, a) != nil || frameOf(t, m, b) == nil {
		t.Error("want the unclaimed read-ahead of A evicted before B")
	}
	if st := m.Stats(); st.Misses != 3 || st.Hits != 0 || st.Evicts != 1 {
		t.Errorf("stats %+v, want 3 misses (one read-ahead) and 1 evict", st)
	}
	if n := d.readsOf(a); n != 1 {
		t.Errorf("A read %d times, want 1", n)
	}
}

// carvedPool is a gatedPool whose frames have all been carved and freed, so
// freeFrames counts the whole pool and a leak check is exact.
func carvedPool(t *testing.T, capacity, n int) (*Manager, *gatedDisk, []storage.PageID) {
	t.Helper()
	m, d, ids := gatedPool(t, capacity, n)
	for _, id := range ids[:capacity] {
		touch(t, m, id, 0)
	}
	if err := m.Crash(); err != nil {
		t.Fatal(err)
	}
	m.ResetStats()
	return m, d, ids
}

// noLeak fails unless every frame is resident and unpinned, or free.
func noLeak(t *testing.T, m *Manager, capacity int) {
	t.Helper()
	lockPool(t, m)
	for _, f := range m.frames {
		if f != nil && f.pins != 0 {
			t.Errorf("page %d left pinned %d times", f.id, f.pins)
		}
	}
	m.mu.Unlock()
	if res, free := m.Resident(), freeFrames(t, m); res+free != capacity {
		t.Errorf("resident %d + free %d != capacity %d: a frame leaked", res, free, capacity)
	}
}

// TestFailedReadAheadIsInvisible: a read-ahead whose read fails unpublishes
// and frees its frame with no pin left behind; the pin that wants the page
// later reads it as its own miss.
func TestFailedReadAheadIsInvisible(t *testing.T) {
	const capacity = 4
	m, d, ids := carvedPool(t, capacity, capacity+1)
	a := ids[capacity]
	g := d.gateRead(a)
	m.Prefetch([]storage.PageID{a})
	wait(t, g.arrived, "the read-ahead of A to reach the device")
	g.release <- errors.New("injected read failure")
	awaitRead(t, m, a)
	if frameOf(t, m, a) != nil || m.Resident() != 0 {
		t.Fatal("a failed read-ahead left its frame published")
	}
	noLeak(t, m, capacity)
	touch(t, m, a, 0)
	if st := m.Stats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats %+v, want the read-ahead's miss and the pin's own", st)
	}
	noLeak(t, m, capacity)
}

// TestPinWaitingOnFailedReadAheadRetries: a pin waiting on a read-ahead that
// fails looks the page up again, reads it itself and reports what the device
// says to its own read.
func TestPinWaitingOnFailedReadAheadRetries(t *testing.T) {
	const capacity = 4
	m, d, ids := carvedPool(t, capacity, capacity+1)
	a := ids[capacity]
	boom := errors.New("injected read failure")
	first := d.gateRead(a)
	m.Prefetch([]storage.PageID{a})
	wait(t, first.arrived, "the read-ahead of A to reach the device")
	pin := async(func() error { return with(m, a, false, func([]byte) {}) })
	if !blocked(pin) {
		t.Fatal("the pin returned while the read-ahead was in flight")
	}
	retry := d.gateRead(a)
	first.release <- boom
	wait(t, retry.arrived, "the pin's own read of A to reach the device")
	retry.release <- boom
	if err := wait(t, pin, "the pin of A"); !errors.Is(err, boom) {
		t.Fatalf("pin got %v, want the device's error", err)
	}
	if n := d.readsOf(a); n != 2 {
		t.Errorf("A read %d times, want 2 (the read-ahead and the pin's own)", n)
	}
	if frameOf(t, m, a) != nil {
		t.Error("A published after two failed reads")
	}
	noLeak(t, m, capacity)
}

// TestCrashDrainsReadAhead: Crash waits out a read-ahead in flight, then
// finds its frame unpinned and discards it.
func TestCrashDrainsReadAhead(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1)
	a := ids[0]
	g := d.gateRead(a)
	m.Prefetch([]storage.PageID{a})
	wait(t, g.arrived, "the read-ahead of A to reach the device")
	crash := async(m.Crash)
	if !blocked(crash) {
		t.Fatal("Crash returned with a read-ahead in flight")
	}
	g.release <- nil
	if err := wait(t, crash, "Crash"); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if got := m.Resident(); got != 0 {
		t.Errorf("resident = %d after Crash", got)
	}
}

// TestPeekIsNoAccess: Peek of a resident page copies its bytes and leaves the
// counters, the tap and the LRU order as they were; Peek of a page that is
// not resident reports false and reads nothing.
func TestPeekIsNoAccess(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 3)
	a, b, c := ids[0], ids[1], ids[2]
	touch(t, m, a, 0)
	touch(t, m, b, 0)
	taps := tapInto(m)
	before := m.Stats()
	out := make([]byte, 1)
	if !m.Peek(a, 0, out) || out[0] != 1 {
		t.Errorf("Peek of resident A: got %v, want its first byte 1", out)
	}
	if m.lruTail != frameOf(t, m, a) || m.lruHead != frameOf(t, m, b) {
		t.Error("Peek moved a resident page")
	}
	if m.Peek(c, 0, out) {
		t.Error("Peek of C, not resident, reported true")
	}
	if n := d.readsOf(c); n != 0 {
		t.Errorf("Peek read C %d times", n)
	}
	if st := m.Stats(); st != before {
		t.Errorf("stats %+v after Peek, want %+v", st, before)
	}
	if evs := taps.get(); len(evs) != 0 {
		t.Errorf("Peek tapped %v", evs)
	}
}

// TestPeekWaitsOutReadAhead: Peek of a page whose read-ahead is in flight
// returns the page's bytes once the read is done, and leaves the frame
// unclaimed: the first pin is still the claim.
func TestPeekWaitsOutReadAhead(t *testing.T) {
	m, d, ids := gatedPool(t, 4, 1)
	taps := tapInto(m)
	a := ids[0]
	g := d.gateRead(a)
	m.Prefetch([]storage.PageID{a})
	wait(t, g.arrived, "the read-ahead of A to reach the device")
	out := make([]byte, 1)
	peek := async(func() error {
		if !m.Peek(a, 0, out) {
			return errors.New("Peek of A reported false")
		}
		return nil
	})
	if !blocked(peek) {
		t.Fatal("Peek returned while the read-ahead of A was in flight")
	}
	g.release <- nil
	if err := wait(t, peek, "Peek of A"); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 {
		t.Errorf("Peek of A copied %d, want 1", out[0])
	}
	if f := frameOf(t, m, a); f == nil || !f.ahead || f.pins != 0 {
		t.Errorf("A after Peek: %+v, want read ahead, unclaimed, unpinned", f)
	}
	touch(t, m, a, 0)
	if evs := taps.get(); !slices.Equal(evs, []Event{ReadAhead, Claim}) {
		t.Errorf("tapped %v, want ReadAhead then the pin's Claim", evs)
	}
	if st := m.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats %+v, want the read-ahead's miss alone", st)
	}
}

// TestPeekOfLatchedPageReportsFalse: Peek holds the manager's mutex, which
// a content-latch holder may need to unpin, so it never waits for the latch:
// a page pinned through Pin reports false at once, and true once unpinned.
func TestPeekOfLatchedPageReportsFalse(t *testing.T) {
	m, _, ids := gatedPool(t, 4, 1)
	a := ids[0]
	pg, err := m.Pin(a)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 1)
	peek := async(func() error {
		if m.Peek(a, 0, out) {
			return errors.New("Peek of latched A reported true")
		}
		return nil
	})
	if err := wait(t, peek, "Peek of latched A"); err != nil {
		t.Error(err)
	}
	m.Unpin(pg, false)
	if !m.Peek(a, 0, out) || out[0] != 1 {
		t.Errorf("Peek of A once unlatched: got %v, want its first byte 1", out)
	}
}
