// Package bufmgr implements the engine's buffer manager: a fixed set of
// frames over the storage.Store with pin/unpin semantics, LRU eviction of
// unpinned frames, write-back of dirty pages, and per-class hit/miss
// accounting so the engine's buffer behaviour can be compared with the
// paper's trace-driven simulation.
//
// The pool is the paper's §4 buffer: one global LRU over every frame, under
// one mutex. Its reference stream is therefore totally ordered, which is
// what lets the cross-validation replay (package xval) reproduce the pool's
// hits, misses and evictions bit for bit.
//
// # Frame life cycle
//
// The paper's throughput model sizes disk arms assuming independent I/Os
// overlap, so no device call is made under the manager's mutex. A frame is
//
//   - free: on the freelist (or not yet carved);
//   - reserved/reading: a miss took it, published it in the frame table
//     with io == ioRead and the reader's pin, and dropped m.mu around
//     store.Read. The miss is counted and tapped at publication, where the
//     page's class is looked up for the residency. A second
//     pin of the same page finds the frame, waits on the frame (not the
//     pool) and, once the read has succeeded, counts as a HIT: one
//     store.Read serves both, so at quiescence Misses == store reads. If
//     the read fails the frame is unpublished and freed, the reader gets
//     the error, and each waiter retries as a miss of its own;
//   - read ahead: Prefetch reserved it the same way, for a page no one has
//     pinned yet, and published it with io == ioRead, NO pin and `ahead`
//     set, at the MRU end of the LRU list; a goroutine of its own runs
//     store.Read. The reservation is the page's miss: counted and tapped
//     (ReadAhead) at publication, so Misses == store reads still holds. An
//     evictor passes the frame over while its read is in flight. The first
//     pin — waiting out the read if need be, as for another pin's miss —
//     CLAIMS it: counted nowhere, tapped as a Claim, moved to MRU like any
//     pin, so the counters and the logical reference stream are those of
//     the same pins without read-ahead. A frame nobody claims is an LRU
//     frame like any other and ages out; it cost one counted miss. A failed
//     read-ahead is invisible: the frame is unpublished and freed, and the
//     pin that wanted the page reads it as its own miss;
//   - resident: pinned, or unpinned and on the LRU list. A page Allocate
//     created starts here, its class unresolved until its first access
//     (its owner tags it only after Allocate returns). An Unpin that
//     dirties the page notes in the frame, BEFORE it lets go of the content
//     latch, how long the log is (logEnd; see the WAL rule below);
//   - busy/writing: a write-back marked it busy and clean under m.mu; then,
//     with m.mu dropped, flush took the content latch, forced the log up to
//     the frame's logEnd as it reads under that latch, and ran store.Flush.
//     The frame keeps its LRU position and may be pinned meanwhile (the
//     pinner waits for the content latch, never for m.mu). A frame an
//     evictor is writing is skipped by other evictors; one being written in
//     place (clean-ahead, FlushAll) is still the LRU victim and an evictor
//     waits on it. A failed force or write leaves the frame dirty where it
//     was;
//   - evicted: a clean unpinned LRU-tail frame leaves the table and
//     returns to the freelist. A victim that was pinned during its
//     write-back simply stays, clean, and the next victim is taken.
//
// Lock order: content latch, then m.mu (Unpin); m.mu is never held across
// a device call, a log force or a content-latch wait. Peek and ReadRecords
// are the only paths that take the latch under m.mu, and they only try it.
// Crash and FlushAll wait out frames whose I/O is in flight, read-aheads
// included.
//
// Only a pinner or a write-back ever holds the latch, so an IDLE frame —
// unpinned, no I/O in flight — has it free, and keeps it free while m.mu is
// held: a pinner counts its pin under m.mu before it takes the latch and
// drops the pin under m.mu after it lets go; a write-back marks the frame
// busy under m.mu before it latches and idle under m.mu after it unlatches;
// and Peek and ReadRecords latch only while holding m.mu. ReadRecords reads
// an idle frame under m.mu alone, with no latch; any other frame it tries to
// latch.
//
// # A batch of hits in one visit
//
// A resident reference is most of what the paper's Table 4 counts, so a hit
// touches the frame table and the frame and nothing else. The table is a
// slice indexed by page ID, because the store allocates IDs densely from 0;
// the frame caches its page's class, so a hit does not call the classifier;
// and a record read (ReadRecords, which storage.HeapFile's reads use) does a
// hit's pin, its copy and its unpin without a latch on an idle frame, and
// for a whole batch of records — a join's order lines, its stock rows, a
// name group — under one hold of m.mu, where a Pin and an Unpin of each
// would take it twice a record. Nothing but the mutex round-trips is shared:
// each record is counted, tapped, classified and moved to the MRU end as
// its own hit, in batch order. It serves only what a pin would serve at
// once — a resident, claimed page whose content latch is free — stops at
// the first record it cannot serve and leaves that one to Pin, so the
// counters, the tapped stream and the LRU order are those of a Pin and an
// Unpin per record.
//
// # The WAL rule
//
// No page image reaches the store before the log records of the changes it
// carries are durable. Writers log first and dirty second: the record is
// appended before the Unpin that marks the page dirty, so the log's size at
// that Unpin is past the record. The frame keeps the latest such size in
// logEnd — in memory only, reset when the frame is reused, never on the page
// — and a write-back asks the log to be durable that far and no further
// (Log.ForceTo). logEnd is written and read under the CONTENT LATCH, not
// m.mu: a pinner may change the page between a write-back's mark-busy and its
// latch, and the latch is what makes the image written and the offset forced
// one pair — whoever holds it sees either both the change and its offset or
// neither. A frame at the LRU tail was last dirtied long before the log's
// durable point, so for clean-ahead and the evictor the rule is normally
// free: a mutex and a comparison, no log I/O. A read-ahead only reads, so
// the rule has nothing to say about it: its frame is clean until a pinner
// dirties it through Unpin like any other.
//
// # Clean-ahead
//
// Eviction writes a dirty victim before it can read, which puts a page
// write on the reader's clock. When a miss finds the pool full, every dirty,
// idle frame among the cleanAhead frames at the LRU tail but the victim
// itself is marked busy and clean and written back IN PLACE on a goroutine
// of its own, all of them at once, as independent I/Os overlap in the
// paper's model. Neither LRU position nor residency changes, so the hit/miss
// stream, Evicts and the xval replay are those of plain LRU. The victim is
// left to the miss, which writes it in the foreground and so sees its
// error: a device that keeps failing fails the miss instead of re-arming a
// write nobody waits for. A failed clean-ahead write leaves its frame dirty.
package bufmgr

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"tpccmodel/internal/engine/storage"
)

// Event is what one Tap call reports.
type Event uint8

const (
	// Hit: a pin found the page resident. Counted as a hit.
	Hit Event = iota
	// Miss: a pin reserved a frame and reads the page in. Counted as a miss.
	Miss
	// Alloc: a page was created resident at the MRU position. Not an access
	// and not counted, but a replayed LRU must see it to reproduce the pool.
	Alloc
	// ReadAhead: Prefetch reserved a frame and reads the page in. It is the
	// page's miss, taken ahead of its use, and counted as one.
	ReadAhead
	// Claim: the first pin of a read-ahead frame. It is the logical access
	// whose miss the ReadAhead already counted, so it is counted nowhere; it
	// moves the frame to MRU like any pin.
	Claim
)

// Tap observes the buffer manager's reference stream: it is called once
// per pin (Hit, Miss or Claim), per read-ahead reservation and per page
// allocation, with the page and its accounting class. The tap runs under
// the manager's mutex, so calls are totally ordered — in exactly the order
// the LRU decisions are taken — and the callback must not re-enter the
// manager. A miss or read-ahead is reported when its frame is published,
// before the page is read. That order is what makes the engine's measured
// hit/miss stream bit-reproducible by a stack-distance replay (package
// xval). Dropping the ReadAhead events and reading each Claim as an access
// gives the logical stream: the pins in the order the transactions made
// them, whatever was read ahead.
type Tap func(id storage.PageID, cls int, ev Event)

// Stats counts logical page accesses and physical misses. A read-ahead is
// counted as the miss of the access that claims it, and the claim in
// neither field.
type Stats struct {
	Hits    int64
	Misses  int64
	Evicts  int64
	Flushes int64
}

// Accesses returns Hits+Misses.
func (s Stats) Accesses() int64 { return s.Hits + s.Misses }

// MissRate returns Misses/Accesses (0 when unused).
func (s Stats) MissRate() float64 {
	if a := s.Accesses(); a > 0 {
		return float64(s.Misses) / float64(a)
	}
	return 0
}

// ioState says whether a frame's page I/O is in flight with the manager's
// mutex dropped (see the package comment's frame life cycle).
type ioState uint8

const (
	ioNone  ioState = iota
	ioRead          // reserved: a miss (pins == 1, the reader's) or a read-ahead (pins == 0) is reading the page in
	ioClean         // busy: being written back in place (clean-ahead, FlushAll)
	ioEvict         // busy: being written back by the evictor that will take it
)

// writing reports whether a write-back of f is in flight.
func (f *frame) writing() bool { return f.io >= ioClean }

// cleanAhead is the run of frames at the LRU tail a miss cleans ahead of
// eviction, and so the bound on clean-ahead writes in flight (a frame pinned
// during its write leaves the run, and may be replaced in it).
const cleanAhead = 16

// frame is one buffer slot. The fields a pin hit and its unpin touch — and
// all a record read of ReadRecords touches, cls included — come first and
// fit in 64 bytes, so a hit costs one cache line of the frame
// (TestFrameHitLayout).
type frame struct {
	// contentMu serializes readers/writers of data: row locks serialize
	// same-row access, but two rows sharing a page (or its slot bitmap
	// byte) may be touched concurrently.
	contentMu sync.Mutex
	pins      int
	// prev/next with inLRU form an intrusive doubly-linked LRU list of
	// unpinned frames — intrusive so moving a frame on pin/unpin never
	// allocates a list node (container/list would allocate an Element
	// per unpin, one heap allocation on every record access).
	prev, next *frame
	data       []byte
	io         ioState
	// ahead marks a read-ahead frame no pin has claimed yet (on m.mu).
	ahead bool
	dirty bool
	inLRU bool
	// cls is the page's accounting class, resolved once per residency: at
	// publication for a miss or a read-ahead, and at the first access of a
	// page Allocate created, whose owner tags it only after Allocate
	// returns. It is unresolved until then. On m.mu.
	cls int32

	// logEnd is the log's size at the latest unpin that dirtied the page:
	// the log must be durable that far before data may be written back.
	// Guarded by contentMu, not m.mu (see the package comment's WAL rule).
	logEnd int64
	id     storage.PageID
	// ioDone (on m.mu) is broadcast when io returns to ioNone: it wakes
	// whoever waits for THIS frame — pins of the page being read, an
	// evictor or FlushAll waiting for its write, Crash — and nobody else.
	ioDone sync.Cond
	// readAhead fills the frame and writeAhead writes it back, each bound
	// once when the frame is carved: a go statement on either allocates
	// nothing, one on a method value would.
	readAhead, writeAhead func()
}

// Manager is the buffer manager. All methods are safe for concurrent use.
type Manager struct {
	store    *storage.Store
	capacity int

	mu sync.Mutex
	// cond is signalled when a victim or a free slot may have appeared: an
	// unpin, a finished write-back, a failed read.
	cond sync.Cond
	// frames is the frame table: frames[id] is page id's published frame —
	// resident, or reserved for a read in flight — and nil when it has none.
	// The store hands out page IDs densely from 0, so a slice indexed by page
	// finds a frame with a bounds check and a load, where a map would hash.
	// It grows with the store and never shrinks; resident counts its non-nil
	// entries and never exceeds capacity.
	frames   []*frame
	resident int
	// Intrusive LRU list of unpinned frames: lruHead = MRU, lruTail =
	// eviction victim.
	lruHead, lruTail *frame
	// freeFrames chains evicted frames (via next) for reuse, and
	// frameChunk/dataSlab back batched frame allocation, so a steady
	// state of misses and evictions recycles frames instead of
	// heap-allocating a frame and page buffer per miss.
	freeFrames *frame
	frameChunk []frame
	dataSlab   []byte

	stats      Stats
	classStats []Stats

	// The hooks below are read under m.mu on every access and written (by
	// the Set* methods) under it too, so installs are race-free even
	// mid-run. Code that drops the mutex around a call to one reads it into
	// a local first.
	//
	// classOf assigns pages to accounting classes (e.g. one per
	// relation); nil means everything lands in class 0.
	classOf func(storage.PageID) int
	// tap, when non-nil, observes every access and allocation in decision
	// order (see Tap).
	tap Tap

	// log is the write-ahead log the WAL rule is kept against; nil means
	// there is none and pages are written back as they are. Unlike the
	// hooks above it is read under a frame's content latch, without m.mu:
	// SetLog runs before the first access.
	log Log

	// evicted is set by the first eviction and never cleared (see Evicted).
	evicted atomic.Bool
}

// Log is what the buffer manager needs of the write-ahead log to keep the
// WAL rule (see the package comment); *wal.Log implements it.
type Log interface {
	// Size returns the log's length in bytes. It is called on every unpin
	// that dirties a page, with the page's content latch held, and must
	// not block.
	Size() int64
	// ForceTo returns once the first off bytes of the log are durable.
	ForceTo(off int64) error
}

// New creates a buffer manager with capacity frames over store: a single
// global LRU, whose reference stream the cross-validation replay
// reproduces exactly.
func New(store *storage.Store, capacity int) *Manager {
	if capacity <= 0 {
		panic("bufmgr: capacity must be positive")
	}
	m := &Manager{store: store, capacity: capacity}
	m.cond.L = &m.mu
	return m
}

// frameChunkSize bounds how many frames are allocated per chunk.
const frameChunkSize = 64

// frameFor returns a reusable or freshly carved frame reset for page id.
// Callers hold m.mu.
func (m *Manager) frameFor(id storage.PageID) *frame {
	f := m.freeFrames
	if f != nil {
		m.freeFrames = f.next
		f.next = nil
	} else {
		f = m.carve()
	}
	f.id = id
	f.pins = 0
	f.dirty = false
	f.ahead = false
	f.logEnd = 0
	f.inLRU = false
	f.prev, f.next = nil, nil
	f.cls = unresolved
	return f
}

// unresolved is a frame's cls until its page's class is looked up.
const unresolved = -1

// classify returns page id's accounting class. Callers hold m.mu.
func (m *Manager) classify(id storage.PageID) int32 {
	if m.classOf == nil {
		return 0
	}
	return int32(m.classOf(id))
}

// lookup returns page id's published frame, or nil. Callers hold m.mu.
func (m *Manager) lookup(id storage.PageID) *frame {
	if id < storage.PageID(len(m.frames)) {
		return m.frames[id]
	}
	return nil
}

// enter publishes f in the frame table, growing the table to reach its page.
// Callers hold m.mu.
func (m *Manager) enter(f *frame) {
	if n := int(f.id) + 1; n > len(m.frames) {
		m.frames = slices.Grow(m.frames, n-len(m.frames))[:n]
	}
	m.frames[f.id] = f
	m.resident++
}

// leave unpublishes f. Callers hold m.mu.
func (m *Manager) leave(f *frame) {
	m.frames[f.id] = nil
	m.resident--
}

// carve takes a never-used frame from the current chunk, allocating a new
// chunk and its page slab when it is used up. Callers hold m.mu.
func (m *Manager) carve() *frame {
	ps := m.store.PageSize()
	if len(m.frameChunk) == 0 {
		n := min(m.capacity, frameChunkSize)
		m.frameChunk = make([]frame, n)
		m.dataSlab = make([]byte, n*ps)
	}
	f := &m.frameChunk[0]
	m.frameChunk = m.frameChunk[1:]
	f.data = m.dataSlab[:ps:ps]
	m.dataSlab = m.dataSlab[ps:]
	f.readAhead = func() { m.fill(f) }
	f.writeAhead = func() { m.cleanOut(f) }
	f.ioDone.L = &m.mu
	return f
}

// freeFrame returns an unlisted frame to the reuse chain. Callers hold
// m.mu.
func (m *Manager) freeFrame(f *frame) {
	f.next = m.freeFrames
	m.freeFrames = f
}

// lruPush puts f at the MRU end. Callers hold m.mu; f must not be listed.
func (m *Manager) lruPush(f *frame) {
	f.inLRU = true
	f.prev = nil
	f.next = m.lruHead
	if m.lruHead != nil {
		m.lruHead.prev = f
	}
	m.lruHead = f
	if m.lruTail == nil {
		m.lruTail = f
	}
}

// lruRemove unlinks f from the LRU list. Callers hold m.mu.
func (m *Manager) lruRemove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		m.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		m.lruTail = f.prev
	}
	f.inLRU = false
	f.prev, f.next = nil, nil
}

// SetClassifier installs a page-to-class mapping with the given number
// of accounting classes; must be called before any access, since a frame
// keeps the class it was given for the rest of its residency.
func (m *Manager) SetClassifier(classes int, fn func(storage.PageID) int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.classOf = fn
	m.classStats = make([]Stats, classes)
}

// SetLog installs the write-ahead log the WAL rule is kept against; it must
// be called before the first access.
func (m *Manager) SetLog(l Log) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.log = l
}

// SetTap installs a reference-stream tap (nil disables). Install it before
// the first access so the replayed stream covers the whole pool history;
// a tap installed mid-run would miss the residency established earlier.
func (m *Manager) SetTap(fn Tap) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.tap = fn
}

// reserve looks page id up for a pin (wait) or a read-ahead (!wait). It
// returns the page's published frame — for a pin, once no read of it is in
// flight — or nil once the pool has room for a new frame, making that room
// as a miss does. A page the store never allocated is refused before
// anything is counted: it could only fail its read, and the frame table
// would grow to reach it. Callers hold m.mu, which any step may drop and
// retake.
func (m *Manager) reserve(id storage.PageID, wait bool) (*frame, error) {
	for {
		if f := m.lookup(id); f != nil {
			if wait && f.io == ioRead {
				f.ioDone.Wait()
				continue
			}
			return f, nil
		}
		if int64(id) >= m.store.Pages() {
			return nil, fmt.Errorf("bufmgr: page %d was never allocated: %w", id, storage.ErrInvalidArgument)
		}
		if m.resident < m.capacity {
			return nil, nil
		}
		m.cleanAheadOfMiss()
		if err := m.makeRoom(); err != nil {
			return nil, err
		}
	}
}

// publish takes a frame for page id, counted and tapped as ev (Miss or
// ReadAhead), and publishes it with its read in flight: a pin of the page
// now waits on f.ioDone. Callers hold m.mu and have reserved room.
func (m *Manager) publish(id storage.PageID, ev Event) *frame {
	f := m.frameFor(id)
	f.cls = m.classify(id)
	m.note(id, f.cls, ev)
	f.io = ioRead
	m.enter(f)
	return f
}

// readDone ends f's read: on failure the frame is unpublished and freed,
// and whoever waits on it looks the page up again. Callers hold m.mu.
func (m *Manager) readDone(f *frame, err error) {
	f.io = ioNone
	f.ioDone.Broadcast()
	if err != nil {
		if f.inLRU {
			m.lruRemove(f)
		}
		m.leave(f)
		m.freeFrame(f)
	}
	// A free slot (failure) or an unpinned read-ahead frame, which victim
	// skipped while it was reading, may be what a reservation waits for.
	m.cond.Broadcast()
}

// fill reads the frame Prefetch published, off the caller's goroutine.
func (m *Manager) fill(f *frame) {
	err := m.store.Read(f.id, f.data)
	m.mu.Lock()
	m.readDone(f, err)
	m.mu.Unlock()
}

// note counts and taps one reference-stream event for page id, of class cls,
// other than a hit, which hit counts. Callers hold m.mu.
func (m *Manager) note(id storage.PageID, cls int32, ev Event) {
	if ev == Miss || ev == ReadAhead {
		m.stats.Misses++
		if m.classStats != nil {
			m.classStats[cls].Misses++
		}
	}
	if m.tap != nil {
		m.tap(id, int(cls), ev)
	}
}

// hit counts and taps one hit of the resident frame f, resolving its class
// if this is the first access of its residency. Callers hold m.mu.
func (m *Manager) hit(f *frame) {
	if f.cls == unresolved {
		f.cls = m.classify(f.id)
	}
	m.stats.Hits++
	if m.classStats != nil {
		m.classStats[f.cls].Hits++
	}
	if m.tap != nil {
		m.tap(f.id, int(f.cls), Hit)
	}
}

// writeBack writes the dirty resident frame f to the store, honoring the
// WAL rule, with m.mu dropped. The frame is marked busy (as ioClean or
// ioEvict) and clean first: it stays where it is in the LRU list and may be
// pinned meanwhile, nobody else writes or evicts it, and an unpin that
// dirties it again during the write is not lost. A failed force or write
// leaves f dirty. Callers hold m.mu (held again on return) and must
// re-examine the pool afterwards; f.io must be ioNone.
func (m *Manager) writeBack(f *frame, as ioState) error {
	f.io, f.dirty = as, false
	m.mu.Unlock()
	err := m.flush(f)
	m.mu.Lock()
	return m.written(f, err)
}

// flush is a write-back's device half, run with m.mu dropped. The content
// latch is taken BEFORE f.logEnd is read and the log forced that far, so
// every change the written image carries — one slipped in since the frame
// was marked busy included — has its log record forced.
func (m *Manager) flush(f *frame) error {
	f.contentMu.Lock()
	defer f.contentMu.Unlock()
	if log := m.log; log != nil {
		if err := log.ForceTo(f.logEnd); err != nil {
			return err
		}
	}
	return m.store.Flush(f.id, f.data)
}

// written is a write-back's completion half: f is idle again, and dirty
// again if the write failed. Callers hold m.mu.
func (m *Manager) written(f *frame, err error) error {
	f.io = ioNone
	if err != nil {
		f.dirty = true
	} else {
		m.stats.Flushes++
	}
	f.ioDone.Broadcast()
	m.cond.Broadcast()
	return err
}

// cleanOut writes back the frame cleanAheadOfMiss marked, off the miss's
// goroutine.
func (m *Manager) cleanOut(f *frame) {
	err := m.flush(f)
	m.mu.Lock()
	m.written(f, err)
	m.mu.Unlock()
}

// victim returns the least recently used unpinned frame that no other
// evictor has spoken for and no read-ahead is still filling, or nil. A frame
// being cleaned in place is still the victim (its write is waited for),
// which is what keeps the eviction order plain LRU whatever clean-ahead
// does. Callers hold m.mu.
func (m *Manager) victim() *frame {
	f := m.lruTail
	for f != nil && (f.io == ioEvict || f.io == ioRead) {
		f = f.prev
	}
	return f
}

// makeRoom takes one step towards a free slot in a full pool: it evicts the
// victim if clean, writes it back if dirty (the next step finds it clean,
// unless it was pinned meanwhile), or waits: for the victim's cleaning to
// end, or for a victim when every frame is pinned or spoken for. Callers
// hold m.mu, which any step may drop and retake, and loop on their own
// condition.
func (m *Manager) makeRoom() error {
	switch f := m.victim(); {
	case f == nil:
		m.cond.Wait()
	case f.io == ioClean:
		f.ioDone.Wait()
	case f.dirty:
		return m.writeBack(f, ioEvict)
	default:
		m.lruRemove(f)
		m.leave(f)
		m.stats.Evicts++
		m.freeFrame(f)
		if !m.evicted.Load() {
			m.evicted.Store(true)
		}
	}
	return nil
}

// cleanAheadOfMiss marks every dirty, idle frame among the cleanAhead next
// in line for eviction busy and clean, and starts its write-back on a
// goroutine of its own. It leaves the victim to makeRoom, which writes it as
// ioEvict and so returns its error. Only a miss calls it: page allocation is
// what loading a database does, nothing but; there every victim is dirty,
// nobody waits for a read, and writers trading frames with the loader cost
// more than they save. Each goroutine ends with its write, and Crash and
// FlushAll wait for it. Callers hold m.mu.
func (m *Manager) cleanAheadOfMiss() {
	v := m.victim()
	for n, f := 0, m.lruTail; f != nil && n < cleanAhead; n, f = n+1, f.prev {
		if f != v && f.dirty && f.io == ioNone {
			f.io, f.dirty = ioClean, false
			go f.writeAhead()
		}
	}
}

// busyFrame returns a frame with I/O in flight, or nil. Every such frame is
// published: a read's when it is reserved, a write's because it is
// resident. Callers hold m.mu.
func (m *Manager) busyFrame() *frame {
	for _, f := range m.frames {
		if f != nil && f.io != ioNone {
			return f
		}
	}
	return nil
}

// Capacity returns the frame count.
func (m *Manager) Capacity() int { return m.capacity }

// Stats returns the global counters.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ClassStats returns a copy of the per-class counters.
func (m *Manager) ClassStats() []Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return slices.Clone(m.classStats)
}

// ResetStats zeroes all counters (e.g. after warmup).
func (m *Manager) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
	clear(m.classStats)
}

// pin returns the frame for id with its pin count incremented, reading the
// page in on a miss and evicting an unpinned LRU victim when the pool is
// full. It blocks while every frame is pinned or busy, and while another
// pin's read of the same page is in flight.
func (m *Manager) pin(id storage.PageID) (*frame, error) {
	m.mu.Lock()
	defer m.mu.Unlock()

	// A hit, the common case, costs one lookup before it is counted.
	f := m.lookup(id)
	if f == nil || f.io == ioRead {
		var err error
		if f, err = m.reserve(id, true); err != nil {
			return nil, err
		}
		if f == nil {
			return m.readIn(id)
		}
	}
	if f.ahead {
		f.ahead = false
		m.note(id, f.cls, Claim)
	} else {
		m.hit(f)
	}
	if f.pins == 0 && f.inLRU {
		m.lruRemove(f)
	}
	f.pins++
	return f, nil
}

// readIn is a pin's miss: it publishes a frame for page id, pinned, and
// reads the page into it with m.mu dropped. Callers hold m.mu and have
// reserved room.
func (m *Manager) readIn(id storage.PageID) (*frame, error) {
	f := m.publish(id, Miss)
	f.pins = 1
	m.mu.Unlock()
	err := m.store.Read(id, f.data)
	m.mu.Lock()
	m.readDone(f, err)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Prefetch starts reading the listed pages that are not resident and returns
// without waiting for any of them. Each such page gets a frame reserved the
// way a miss reserves one (eviction and write-back of a victim included),
// counted and tapped as a ReadAhead, published at the MRU position with its
// read in flight, and filled on a goroutine of its own; a pin of the page
// waits on that read as it waits on another pin's miss, and the first one
// claims the frame (see Claim). A page already resident or being read costs
// a table probe and nothing else: no count, no tap, no LRU move. A failed
// read-ahead is invisible: its frame is unpublished and freed, and the pin
// that wanted the page reads it as its own miss and gets its own error. ids
// is not retained. A reading goroutine holds a reserved frame, so there are
// never more of them than frames; each ends with its read, and Crash waits
// for it.
func (m *Manager) Prefetch(ids []storage.PageID) {
	for _, id := range ids {
		m.mu.Lock()
		if f, err := m.reserve(id, false); f == nil && err == nil {
			f = m.publish(id, ReadAhead)
			f.ahead = true
			m.lruPush(f)
			go f.readAhead()
		}
		m.mu.Unlock()
	}
}

// Peek implements storage.Pager: it copies the bytes of page id at off into
// out when the page is resident — once a read of it in flight is done — and
// nobody holds its content latch; otherwise it reports false. It is a hint
// for planning read-ahead, never an access: nothing is counted, tapped,
// pinned or moved.
func (m *Manager) Peek(id storage.PageID, off int, out []byte) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	f := m.lookup(id)
	for f != nil && f.io == ioRead {
		f.ioDone.Wait()
		f = m.lookup(id)
	}
	// TryLock: the content latch is taken before m.mu everywhere else.
	if f == nil || !f.contentMu.TryLock() {
		return false
	}
	copy(out, f.data[off:])
	f.contentMu.Unlock()
	return true
}

// ReadRecords implements storage.Pager: a batch of record reads in one visit
// to the pool. It serves rids in order under one hold of m.mu, each as a Pin
// and an Unpin of the hit would: it counts and taps one Hit, moves the frame
// to the MRU end unless another pin holds it, and — with the page's content
// as still as a pinner's latch would hold it — sets live[i] to whether the
// record's live flag is set and, if it is, copies the first n bytes of the
// record into out[i*n:]. Slots are placed by lay and must lie on their
// pages. It stops at the first record whose page is not resident, is being
// read, is a read-ahead nobody has claimed yet or has its content latch
// held, having done nothing for it, and returns how many records it served;
// the caller pins that page and asks again for the rest.
//
// The copies are made under m.mu because the frames are not pinned: once
// m.mu is dropped an evictor could take them. On an idle frame m.mu alone
// keeps the latch free (see the package comment's lock order), so only a
// frame that is pinned or being written back is latched, and then only
// tried.
func (m *Manager) ReadRecords(rids []storage.RID, lay storage.Layout, n int, out []byte, live []bool) int {
	// Each return unlocks without a defer: a lone record read is a batch of
	// one, and a defer costs it about 1 ns of 23 (BenchmarkReadHit on a
	// 2-core Xeon).
	m.mu.Lock()
	for i, rid := range rids {
		f := m.lookup(rid.Page)
		if f == nil || f.io == ioRead || f.ahead {
			m.mu.Unlock()
			return i
		}
		// TryLock: the content latch is taken before m.mu everywhere else.
		idle := f.pins == 0 && f.io == ioNone
		if !idle && !f.contentMu.TryLock() {
			m.mu.Unlock()
			return i
		}
		m.hit(f)
		if f.pins == 0 && f.inLRU && f != m.lruHead {
			m.lruRemove(f)
			m.lruPush(f)
		}
		flag, bit, off := lay.Slot(int(rid.Slot))
		if live[i] = f.data[flag]&bit != 0; live[i] {
			copy(out[i*n:i*n+n], f.data[off:])
		}
		if !idle {
			f.contentMu.Unlock()
		}
	}
	m.mu.Unlock()
	return len(rids)
}

// Evicted reports whether the pool has ever had to evict a page: whether the
// data it is asked for does not fit, which is when reading ahead pays.
func (m *Manager) Evicted() bool { return m.evicted.Load() }

// noteLog records in f how long the log is, for the WAL rule. The caller
// holds f's content latch, has changed the page and is about to unpin it
// dirty; it appended its log record before it got here, so the log is durable
// past that record once it is durable this far.
func (m *Manager) noteLog(f *frame) {
	if m.log != nil {
		f.logEnd = m.log.Size()
	}
}

// unpin releases one pin, recording dirtiness.
func (m *Manager) unpin(f *frame, dirty bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins < 0 {
		panic("bufmgr: unpin without pin")
	}
	if f.pins == 0 {
		m.lruPush(f)
		m.cond.Signal()
	}
}

// Pin implements storage.Pager: it pins page id, acquires the frame's
// content latch, and returns the page bytes. The Token carries the frame
// pointer; storing a pointer in the interface does not allocate.
func (m *Manager) Pin(id storage.PageID) (storage.Pinned, error) {
	f, err := m.pin(id)
	if err != nil {
		return storage.Pinned{}, err
	}
	f.contentMu.Lock()
	return storage.Pinned{Data: f.data, Token: f}, nil
}

// Unpin releases a page returned by Pin, marking it dirty when dirty.
func (m *Manager) Unpin(p storage.Pinned, dirty bool) {
	f := p.Token.(*frame)
	if dirty {
		m.noteLog(f)
	}
	f.contentMu.Unlock()
	m.unpin(f, dirty)
}

// Allocate implements storage.Pager: it allocates a store page and makes
// it resident and dirty. Allocation is page creation, not a logical
// access, so it does not touch the hit/miss counters (which would
// otherwise attribute the inevitable cold miss before the caller can tag
// the page's relation).
func (m *Manager) Allocate() (storage.PageID, error) {
	id, err := m.store.Allocate()
	if err != nil {
		return 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.resident >= m.capacity {
		if err := m.makeRoom(); err != nil {
			return 0, err
		}
	}
	// The relation tag is attached by the caller after Allocate returns, so
	// the class tapped here is the default (replays only need the page
	// identity of uncounted events), and the frame's is resolved at its
	// first pin.
	if m.tap != nil {
		m.tap(id, int(m.classify(id)), Alloc)
	}
	f := m.frameFor(id)
	// A recycled frame still holds its previous page's bytes; a new page
	// must start zeroed, matching its durable image.
	clear(f.data)
	f.dirty = true
	m.enter(f)
	m.lruPush(f)
	return id, nil
}

// FlushAll writes every dirty resident page back to the store (a
// checkpoint) in ascending page order, so two checkpoints of the same state
// issue the same write sequence. Pins proceed while it writes; a page some
// other write-back holds busy is waited for.
func (m *Manager) FlushAll() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	// The table is indexed by page, so ids comes out in ascending order.
	var ids []storage.PageID
	for _, f := range m.frames {
		if f != nil && (f.dirty || f.writing()) {
			ids = append(ids, f.id)
		}
	}
	for _, id := range ids {
		// writeBack and the waits drop m.mu: look the page up each time.
		f := m.lookup(id)
		for f != nil && f.writing() {
			f.ioDone.Wait()
			f = m.lookup(id)
		}
		if f == nil || !f.dirty {
			continue // evicted, hence written, or cleaned meanwhile
		}
		if err := m.writeBack(f, ioClean); err != nil {
			return err
		}
	}
	return nil
}

// Crash discards every resident frame without flushing, simulating a
// failure: dirty pages are lost and only the store's durable images
// survive. Reads and write-backs in flight (clean-ahead's included) are
// waited out first. Pinned frames indicate a bug in the caller.
func (m *Manager) Crash() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for f := m.busyFrame(); f != nil; f = m.busyFrame() {
		f.ioDone.Wait()
	}
	for _, f := range m.frames {
		if f != nil && f.pins > 0 {
			return fmt.Errorf("bufmgr: crash with pinned page %d", f.id)
		}
	}
	for _, f := range m.frames {
		if f != nil {
			f.inLRU = false
			f.prev, f.next = nil, nil
			m.freeFrame(f)
		}
	}
	clear(m.frames)
	m.resident = 0
	m.lruHead, m.lruTail = nil, nil
	return nil
}

// Resident returns the number of resident frames.
func (m *Manager) Resident() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.resident
}
