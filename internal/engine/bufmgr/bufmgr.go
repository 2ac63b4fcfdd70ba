// Package bufmgr implements the engine's buffer manager: a fixed set of
// frames over the storage.Store with pin/unpin semantics, LRU eviction of
// unpinned frames, write-back of dirty pages, and per-class hit/miss
// accounting so the engine's buffer behaviour can be compared with the
// paper's trace-driven simulation.
//
// The frame set is PARTITIONED: pages hash into P independent partitions,
// each with its own mutex, frame table, LRU list, freelist, and counters,
// so concurrent pins of different pages in different partitions never
// serialize on a shared mutex (the paper's throughput model charges a
// fixed CPU cost per buffer access, implicitly assuming those accesses
// scale with added processors). New gives P=1 — a single LRU over all
// frames, byte-identical in behaviour to the seed manager — and
// NewPartitioned(P>1) splits capacity evenly. Each partition runs LRU
// over its own share, so the aggregate is a partitioned-LRU policy: hit
// ratios differ slightly from global LRU, and the reference-stream replay
// (package xval) claims bit-identity only at P=1.
//
// # Frame life cycle
//
// The paper's throughput model sizes disk arms assuming independent I/Os
// overlap, so no device call is made under a partition mutex. A frame is
//
//   - free: on the partition's freelist (or not yet carved);
//   - reserved/reading: a miss took it, published it in the frame table
//     with io == ioRead and the reader's pin, and dropped p.mu around
//     store.Read. The miss is counted and tapped at publication. A second
//     pin of the same page finds the frame, waits on the frame (not the
//     partition) and, once the read has succeeded, counts as a HIT: one
//     store.Read serves both, so at quiescence Misses == store reads. If
//     the read fails the frame is unpublished and freed, the reader gets
//     the error, and each waiter retries as a miss of its own;
//   - resident: pinned, or unpinned and on the LRU list. An Unpin (or
//     With) that dirties the page notes in the frame, BEFORE it lets go of
//     the content latch, how long the log is (logEnd; see the WAL rule
//     below);
//   - busy/writing: writeBack marked it busy and clean, dropped p.mu, took
//     the content latch, forced the log up to the frame's logEnd as it
//     reads under that latch, and ran store.Flush. The frame keeps its LRU
//     position and may be pinned meanwhile (the pinner waits for the
//     content latch, never for p.mu). A frame an evictor is writing is
//     skipped by other evictors; one being written in place (cleaner,
//     FlushAll) is still the LRU victim and an evictor waits on it. A
//     failed force or write leaves the frame dirty where it was;
//   - evicted: a clean unpinned LRU-tail frame leaves the table and
//     returns to the freelist. A victim that was pinned during its
//     write-back simply stays, clean, and the next victim is taken.
//
// Lock order: content latch, then p.mu (Unpin); p.mu is never held across
// a device call, a log force or a content-latch wait. Crash and FlushAll
// wait out frames whose I/O is in flight.
//
// # The WAL rule
//
// No page image reaches the store before the log records of the changes it
// carries are durable. Writers log first and dirty second: the record is
// appended before the Unpin that marks the page dirty, so the log's size at
// that Unpin is past the record. The frame keeps the latest such size in
// logEnd — in memory only, reset when the frame is reused, never on the page
// — and writeBack asks the log to be durable that far and no further
// (Log.ForceTo). logEnd is written and read under the CONTENT LATCH, not
// p.mu: a pinner may change the page between writeBack's mark-busy and its
// latch, and the latch is what makes the image written and the offset forced
// one pair — whoever holds it sees either both the change and its offset or
// neither. A frame at the LRU tail was last dirtied long before the log's
// durable point, so for the cleaner and the evictor the rule is normally
// free: a mutex and a comparison, no log I/O.
//
// # Clean-ahead
//
// Eviction writes a dirty victim before it can read, which puts a page
// write on the reader's clock. When a miss finds its partition full and a
// dirty frame among the cleanAhead frames at the LRU tail, it starts that
// partition's cleaner goroutine (at most one). The cleaner writes those
// frames back IN PLACE — neither LRU position nor residency changes, so the
// hit/miss stream, Evicts and the xval replay are those of plain LRU — and
// exits as soon as the run is clean or a write fails. The foreground
// write-back remains the path a miss takes when the cleaner has not got
// there.
package bufmgr

import (
	"fmt"
	"slices"
	"sync"

	"tpccmodel/internal/engine/storage"
)

// Tap observes the buffer manager's reference stream: it is called once
// per logical access (pin) with the page, its accounting class, and the
// hit/miss outcome, and once per page allocation (alloc = true; allocations
// make a page resident at the MRU position without counting as an access,
// so a replayed LRU simulation must see them to reproduce the pool state).
// The tap runs under the partition lock, so calls are totally ordered PER
// PARTITION and the callback must not re-enter the manager. A miss is
// reported when its frame is published, before the page is read. With a
// single partition and a single-threaded caller the call order is exactly
// the LRU decision order, which is what makes the engine's measured
// hit/miss stream bit-reproducible by a stack-distance replay (package
// xval) — that guarantee is therefore only claimed at partitions = 1, and
// the cross-validation gate pins that configuration.
type Tap func(id storage.PageID, cls int, alloc, hit bool)

// Stats counts logical page accesses and physical misses.
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

// add accumulates other into s.
func (s *Stats) add(o Stats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evicts += o.Evicts
	s.Flushes += o.Flushes
}

// ioState says whether a frame's page I/O is in flight with the partition
// mutex dropped (see the package comment's frame life cycle).
type ioState uint8

const (
	ioNone  ioState = iota
	ioRead          // reserved: a miss is reading the page in; pins == 1, the reader's
	ioClean         // busy: being written back in place (cleaner, FlushAll)
	ioEvict         // busy: being written back by the evictor that will take it
)

// writing reports whether a write-back of f is in flight.
func (f *frame) writing() bool { return f.io >= ioClean }

// cleanAhead is the run of frames at the LRU tail the cleaner keeps clean.
const cleanAhead = 16

type frame struct {
	id    storage.PageID
	data  []byte
	pins  int
	dirty bool
	io    ioState
	// logEnd is the log's size at the latest unpin that dirtied the page:
	// the log must be durable that far before data may be written back.
	// Guarded by contentMu, not p.mu (see the package comment's WAL rule).
	logEnd int64
	// part is the owning partition; Unpin needs it to find the right
	// mutex without rehashing the page id.
	part *partition
	// inLRU with prev/next form an intrusive doubly-linked LRU list of
	// unpinned frames — intrusive so moving a frame on pin/unpin never
	// allocates a list node (container/list would allocate an Element
	// per unpin, one heap allocation on every record access).
	inLRU      bool
	prev, next *frame
	// contentMu serializes readers/writers of data: row locks serialize
	// same-row access, but two rows sharing a page (or its slot bitmap
	// byte) may be touched concurrently.
	contentMu sync.Mutex
	// ioDone (on p.mu) is broadcast when io returns to ioNone: it wakes
	// whoever waits for THIS frame — pins of the page being read, an
	// evictor or FlushAll waiting for its write, Crash — and nobody else.
	// Last, so the fields a hit touches share cache lines as they did
	// before frames had one.
	ioDone sync.Cond
}

// partition is one shard of the pool: a mutex, the frames whose pages hash
// here, an intrusive LRU of its unpinned frames, a freelist, and this
// partition's share of the counters. Eviction, write-back, the cleaner and
// the no-victim wait are all partition-local.
type partition struct {
	mgr      *Manager
	capacity int

	mu sync.Mutex
	// cond is signalled when a victim or a free slot may have appeared: an
	// unpin, a finished write-back, a failed read.
	cond *sync.Cond
	// frames holds every published frame: resident ones and those reserved
	// for a read in flight. len(frames) never exceeds capacity.
	frames map[storage.PageID]*frame
	// cleaning is set while this partition's cleaner goroutine exists.
	cleaning bool
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
}

// Manager is the partitioned buffer manager. All methods are safe for
// concurrent use.
type Manager struct {
	store    *storage.Store
	capacity int
	parts    []*partition
	mask     uint64

	// The shared hooks below are read under a partition mutex on every
	// access; writers (the Set* methods) hold EVERY partition mutex, so
	// no reader can observe a torn update and installs are race-free
	// even mid-run. Code that drops the mutex around a call to one reads
	// it into a local first.
	//
	// classOf assigns pages to accounting classes (e.g. one per
	// relation); nil means everything lands in class 0.
	classOf func(storage.PageID) int
	// tap, when non-nil, observes every access and allocation in
	// per-partition decision order (see Tap).
	tap Tap

	// log is the write-ahead log the WAL rule is kept against; nil means
	// there is none and pages are written back as they are. Unlike the
	// hooks above it is read under a frame's content latch, with no
	// partition mutex: SetLog runs before the first access.
	log Log
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

// New creates a buffer manager with capacity frames over store as one
// partition: a single global LRU, the seed behaviour and the configuration
// whose reference stream the cross-validation replay reproduces exactly.
func New(store *storage.Store, capacity int) *Manager {
	return NewPartitioned(store, capacity, 1)
}

// NewPartitioned creates a buffer manager with capacity frames split over
// partitions (rounded up to a power of two; < 1 means 1). Capacity is
// divided evenly with the remainder spread over the first partitions;
// every partition must end up with at least one frame.
func NewPartitioned(store *storage.Store, capacity, partitions int) *Manager {
	if capacity <= 0 {
		panic("bufmgr: capacity must be positive")
	}
	if partitions < 1 {
		partitions = 1
	}
	n := 1
	for n < partitions {
		n <<= 1
	}
	if n > capacity {
		panic(fmt.Sprintf("bufmgr: %d partitions exceed %d frames", n, capacity))
	}
	m := &Manager{
		store:    store,
		capacity: capacity,
		parts:    make([]*partition, n),
		mask:     uint64(n - 1),
	}
	base, rem := capacity/n, capacity%n
	for i := range m.parts {
		c := base
		if i < rem {
			c++
		}
		p := &partition{
			mgr:      m,
			capacity: c,
			frames:   make(map[storage.PageID]*frame, c),
		}
		p.cond = sync.NewCond(&p.mu)
		m.parts[i] = p
	}
	return m
}

// Partitions returns the partition count (a power of two).
func (m *Manager) Partitions() int { return len(m.parts) }

// partOf hashes a page to its partition. Page ids are allocated densely,
// so Fibonacci multiplicative hashing spreads the near-sequential ids of
// one relation across partitions instead of leaving a hot relation's pages
// clustered in one.
func (m *Manager) partOf(id storage.PageID) *partition {
	h := uint64(id) * 0x9e3779b97f4a7c15
	return m.parts[(h>>32)&m.mask]
}

// frameChunkSize bounds how many frames are allocated per chunk.
const frameChunkSize = 64

// frameFor returns a reusable or freshly carved frame reset for page id.
// Callers hold p.mu.
func (p *partition) frameFor(id storage.PageID) *frame {
	f := p.freeFrames
	if f != nil {
		p.freeFrames = f.next
		f.next = nil
	} else {
		if len(p.frameChunk) == 0 {
			n := p.capacity
			if n > frameChunkSize {
				n = frameChunkSize
			}
			p.frameChunk = make([]frame, n)
			p.dataSlab = make([]byte, n*p.mgr.store.PageSize())
		}
		f = &p.frameChunk[0]
		p.frameChunk = p.frameChunk[1:]
		ps := p.mgr.store.PageSize()
		f.data = p.dataSlab[:ps:ps]
		p.dataSlab = p.dataSlab[ps:]
		f.part = p
		f.ioDone.L = &p.mu
	}
	f.id = id
	f.pins = 0
	f.dirty = false
	f.logEnd = 0
	f.inLRU = false
	f.prev, f.next = nil, nil
	return f
}

// freeFrame returns an unlisted frame to the reuse chain. Callers hold
// p.mu.
func (p *partition) freeFrame(f *frame) {
	f.next = p.freeFrames
	p.freeFrames = f
}

// lruPush puts f at the MRU end. Callers hold p.mu; f must not be listed.
func (p *partition) lruPush(f *frame) {
	f.inLRU = true
	f.prev = nil
	f.next = p.lruHead
	if p.lruHead != nil {
		p.lruHead.prev = f
	}
	p.lruHead = f
	if p.lruTail == nil {
		p.lruTail = f
	}
}

// lruRemove unlinks f from the LRU list. Callers hold p.mu.
func (p *partition) lruRemove(f *frame) {
	if f.prev != nil {
		f.prev.next = f.next
	} else {
		p.lruHead = f.next
	}
	if f.next != nil {
		f.next.prev = f.prev
	} else {
		p.lruTail = f.prev
	}
	f.inLRU = false
	f.prev, f.next = nil, nil
}

// lockAll takes every partition mutex (in index order) so a shared-hook
// write cannot race any partition's reads.
func (m *Manager) lockAll() {
	for _, p := range m.parts {
		p.mu.Lock()
	}
}

func (m *Manager) unlockAll() {
	for _, p := range m.parts {
		p.mu.Unlock()
	}
}

// SetClassifier installs a page-to-class mapping with the given number
// of accounting classes; must be called before any access.
func (m *Manager) SetClassifier(classes int, fn func(storage.PageID) int) {
	m.lockAll()
	defer m.unlockAll()
	m.classOf = fn
	for _, p := range m.parts {
		p.classStats = make([]Stats, classes)
	}
}

// SetLog installs the write-ahead log the WAL rule is kept against; it must
// be called before the first access.
func (m *Manager) SetLog(l Log) {
	m.lockAll()
	defer m.unlockAll()
	m.log = l
}

// SetTap installs a reference-stream tap (nil disables). Install it before
// the first access so the replayed stream covers the whole pool history;
// a tap installed mid-run would miss the residency established earlier.
// With more than one partition, tap calls from different partitions may
// interleave (total ordering is per-partition only); the exact replay
// contract holds only at partitions = 1.
func (m *Manager) SetTap(fn Tap) {
	m.lockAll()
	defer m.unlockAll()
	m.tap = fn
}

// read publishes the reserved frame f for its page and fills it from the
// store with p.mu dropped: other pins of the partition proceed, a pin of
// the same page waits on f.ioDone. On failure the frame is unpublished and
// freed; the woken waiters look the page up again. Callers hold p.mu and
// f's only pin.
func (p *partition) read(f *frame) error {
	f.io = ioRead
	p.frames[f.id] = f
	p.mu.Unlock()

	err := p.mgr.store.Read(f.id, f.data)

	p.mu.Lock()
	f.io = ioNone
	f.ioDone.Broadcast()
	if err != nil {
		delete(p.frames, f.id)
		p.freeFrame(f)
		p.cond.Broadcast()
	}
	return err
}

// writeBack writes the dirty resident frame f to the store, honoring the
// WAL rule, with p.mu dropped. The frame is marked busy (as ioClean or
// ioEvict) and clean first: it stays where it is in the LRU list and may be
// pinned meanwhile, nobody else writes or evicts it, and an unpin that
// dirties it again during the write is not lost. The content latch is taken
// BEFORE f.logEnd is read and the log forced that far, so every change the
// written image carries — one slipped in since the frame was marked busy
// included — has its log record forced. A failed force or write leaves f
// dirty. Callers hold p.mu (held again on return) and must re-examine the
// partition afterwards; f.io must be ioNone.
func (p *partition) writeBack(f *frame, as ioState) error {
	f.io = as
	f.dirty = false
	p.mu.Unlock()

	f.contentMu.Lock()
	var err error
	if log := p.mgr.log; log != nil {
		err = log.ForceTo(f.logEnd)
	}
	if err == nil {
		err = p.mgr.store.Flush(f.id, f.data)
	}
	f.contentMu.Unlock()

	p.mu.Lock()
	f.io = ioNone
	if err != nil {
		f.dirty = true
	} else {
		p.stats.Flushes++
	}
	f.ioDone.Broadcast()
	p.cond.Broadcast()
	return err
}

// victim returns the least recently used unpinned frame that no other
// evictor has spoken for, or nil. A frame being cleaned in place is still
// the victim (its write is waited for), which is what keeps the eviction
// order plain LRU whatever the cleaner does. Callers hold p.mu.
func (p *partition) victim() *frame {
	f := p.lruTail
	for f != nil && f.io == ioEvict {
		f = f.prev
	}
	return f
}

// dirtyAhead returns the first dirty frame, from the LRU tail, among the
// cleanAhead next victims, or nil when that run is clean or being cleaned.
// Callers hold p.mu.
func (p *partition) dirtyAhead() *frame {
	f := p.lruTail
	for n := 0; f != nil && n < cleanAhead; n++ {
		if f.dirty && f.io == ioNone {
			return f
		}
		f = f.prev
	}
	return nil
}

// makeRoom takes one step towards a free slot in a full partition: it
// evicts the victim if clean, writes it back if dirty (the next step finds
// it clean, unless it was pinned meanwhile), or waits: for the victim's
// cleaning to end, or for a victim when every frame is pinned or spoken for.
// Callers hold p.mu, which any step may drop and retake, and loop on their
// own condition.
func (p *partition) makeRoom() error {
	switch f := p.victim(); {
	case f == nil:
		p.cond.Wait()
	case f.io == ioClean:
		f.ioDone.Wait()
	case f.dirty:
		return p.writeBack(f, ioEvict)
	default:
		p.lruRemove(f)
		delete(p.frames, f.id)
		p.stats.Evicts++
		p.freeFrame(f)
	}
	return nil
}

// cleanAheadOfMiss starts the partition's cleaner, unless it is running,
// when a frame next in line for eviction is dirty. Only a miss calls it:
// page allocation is what loading a database does, nothing but; there every
// victim is dirty, nobody waits for a read, and a second goroutine trading
// frames with the loader costs more than it saves. Callers hold p.mu.
func (p *partition) cleanAheadOfMiss() {
	if !p.cleaning && p.dirtyAhead() != nil {
		p.cleaning = true
		go p.clean()
	}
}

// clean is the partition's cleaner goroutine: it writes the dirty frames of
// the cleanAhead run back in place, tail first, and exits once the run is
// clean. It also exits on a failed write, leaving the frame dirty: the miss
// that needs the frame retries the write and reports the error.
func (p *partition) clean() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for f := p.dirtyAhead(); f != nil; f = p.dirtyAhead() {
		if p.writeBack(f, ioClean) != nil {
			break
		}
	}
	p.cleaning = false
}

// busyFrame returns a frame of p with I/O in flight, or nil. Every such
// frame is published: a read's when it is reserved, a write's because it is
// resident. Callers hold p.mu.
func (p *partition) busyFrame() *frame {
	for _, f := range p.frames {
		if f.io != ioNone {
			return f
		}
	}
	return nil
}

// drain waits until no frame of p has I/O in flight. Callers hold p.mu.
func (p *partition) drain() {
	for f := p.busyFrame(); f != nil; f = p.busyFrame() {
		f.ioDone.Wait()
	}
}

// Capacity returns the total frame count across partitions.
func (m *Manager) Capacity() int { return m.capacity }

// Stats returns the global counters, aggregated over partitions.
func (m *Manager) Stats() Stats {
	var out Stats
	for _, p := range m.parts {
		p.mu.Lock()
		out.add(p.stats)
		p.mu.Unlock()
	}
	return out
}

// ClassStats returns the per-class counters, aggregated over partitions.
func (m *Manager) ClassStats() []Stats {
	var out []Stats
	for _, p := range m.parts {
		p.mu.Lock()
		if len(p.classStats) > len(out) {
			grown := make([]Stats, len(p.classStats))
			copy(grown, out)
			out = grown
		}
		for i := range p.classStats {
			out[i].add(p.classStats[i])
		}
		p.mu.Unlock()
	}
	return out
}

// ResetStats zeroes all counters (e.g. after warmup).
func (m *Manager) ResetStats() {
	for _, p := range m.parts {
		p.mu.Lock()
		p.stats = Stats{}
		for i := range p.classStats {
			p.classStats[i] = Stats{}
		}
		p.mu.Unlock()
	}
}

// pin returns the frame for id with its pin count incremented, reading the
// page in on a miss and evicting an unpinned LRU victim when the partition
// is full. It blocks while every frame of the partition is pinned or busy,
// and while another pin's read of the same page is in flight.
func (m *Manager) pin(id storage.PageID) (*frame, error) {
	p := m.partOf(id)
	p.mu.Lock()
	defer p.mu.Unlock()

	cls := 0
	if m.classOf != nil {
		cls = m.classOf(id)
	}
	// Every wait below drops p.mu, so each turn looks the page up again.
	for {
		if f, ok := p.frames[id]; ok {
			if f.io == ioRead {
				f.ioDone.Wait()
				continue
			}
			p.stats.Hits++
			if p.classStats != nil {
				p.classStats[cls].Hits++
			}
			if m.tap != nil {
				m.tap(id, cls, false, true)
			}
			if f.pins == 0 && f.inLRU {
				p.lruRemove(f)
			}
			f.pins++
			return f, nil
		}
		if len(p.frames) < p.capacity {
			break
		}
		p.cleanAheadOfMiss()
		if err := p.makeRoom(); err != nil {
			return nil, err
		}
	}

	p.stats.Misses++
	if p.classStats != nil {
		p.classStats[cls].Misses++
	}
	if m.tap != nil {
		m.tap(id, cls, false, false)
	}
	f := p.frameFor(id)
	f.pins = 1
	if err := p.read(f); err != nil {
		return nil, err
	}
	return f, nil
}

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
	p := f.part
	p.mu.Lock()
	defer p.mu.Unlock()
	if dirty {
		f.dirty = true
	}
	f.pins--
	if f.pins < 0 {
		panic("bufmgr: unpin without pin")
	}
	if f.pins == 0 {
		p.lruPush(f)
		p.cond.Signal()
	}
}

// Pin implements storage.Pager's closure-free page access: it pins page
// id, acquires the frame's content latch, and returns the page bytes.
// Pin/Unpin do the exact work of With without a callback, so hot-path
// callers avoid the per-call closure allocation an interface boundary
// forces. The Token carries the frame pointer; storing a pointer in the
// interface does not allocate.
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

// With implements storage.Pager: it pins page id, runs fn on its bytes,
// and unpins.
func (m *Manager) With(id storage.PageID, dirty bool, fn func(page []byte)) error {
	f, err := m.pin(id)
	if err != nil {
		return err
	}
	// The frame's data slice is stable while pinned; fn runs outside the
	// partition lock so callers don't serialize the pool, under the
	// frame's content mutex so same-page accesses don't race.
	f.contentMu.Lock()
	fn(f.data)
	if dirty {
		m.noteLog(f)
	}
	f.contentMu.Unlock()
	m.unpin(f, dirty)
	return nil
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
	p := m.partOf(id)
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.frames) >= p.capacity {
		if err := p.makeRoom(); err != nil {
			return 0, err
		}
	}
	if m.tap != nil {
		// The relation tag is attached by the caller after Allocate
		// returns, so the class reported here is the default; replays
		// only need the page identity of uncounted events.
		cls := 0
		if m.classOf != nil {
			cls = m.classOf(id)
		}
		m.tap(id, cls, true, false)
	}
	f := p.frameFor(id)
	// A recycled frame still holds its previous page's bytes; a new page
	// must start zeroed, matching its durable image.
	clear(f.data)
	f.dirty = true
	p.frames[id] = f
	p.lruPush(f)
	return id, nil
}

// FlushAll writes every dirty resident page back to the store (a
// checkpoint), partition by partition in ascending page order, so two
// checkpoints of the same state issue the same write sequence. Pins proceed
// while it writes; a page some other write-back holds busy is waited for.
func (m *Manager) FlushAll() error {
	for _, p := range m.parts {
		if err := p.flushAll(); err != nil {
			return err
		}
	}
	return nil
}

func (p *partition) flushAll() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	var ids []storage.PageID
	for id, f := range p.frames {
		if f.dirty || f.writing() {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	for _, id := range ids {
		// writeBack and the waits drop p.mu: look the page up each time.
		f := p.frames[id]
		for f != nil && f.writing() {
			f.ioDone.Wait()
			f = p.frames[id]
		}
		if f == nil || !f.dirty {
			continue // evicted, hence written, or cleaned meanwhile
		}
		if err := p.writeBack(f, ioClean); err != nil {
			return err
		}
	}
	return nil
}

// Crash discards every resident frame without flushing, simulating a
// failure: dirty pages are lost and only the store's durable images
// survive. Reads and write-backs in flight (a cleaner's included) are
// waited out first. Pinned frames indicate a bug in the caller.
func (m *Manager) Crash() error {
	// All partitions locked: the crash is atomic across the pool.
	m.lockAll()
	defer m.unlockAll()
	for _, p := range m.parts {
		p.drain()
	}
	for _, p := range m.parts {
		for _, f := range p.frames {
			if f.pins > 0 {
				return fmt.Errorf("bufmgr: crash with pinned page %d", f.id)
			}
		}
	}
	for _, p := range m.parts {
		for _, f := range p.frames {
			f.inLRU = false
			f.prev, f.next = nil, nil
			p.freeFrame(f)
		}
		p.frames = make(map[storage.PageID]*frame, p.capacity)
		p.lruHead, p.lruTail = nil, nil
	}
	return nil
}

// Resident returns the number of resident frames across partitions.
func (m *Manager) Resident() int {
	n := 0
	for _, p := range m.parts {
		p.mu.Lock()
		n += len(p.frames)
		p.mu.Unlock()
	}
	return n
}
