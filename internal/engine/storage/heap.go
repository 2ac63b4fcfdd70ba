package storage

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
)

// RID is a record identifier: the page and slot holding the record.
type RID struct {
	Page PageID
	Slot uint16
}

// Pack encodes the RID as a uint64 for storage in index values.
func (r RID) Pack() uint64 { return uint64(r.Page)<<16 | uint64(r.Slot) }

// UnpackRID decodes a packed RID.
func UnpackRID(v uint64) RID {
	return RID{Page: PageID(v >> 16), Slot: uint16(v & 0xffff)}
}

// String renders the RID as "page:slot".
func (r RID) String() string { return fmt.Sprintf("%d:%d", r.Page, r.Slot) }

// Pinned is a page fixed in memory by Pager.Pin. Data is the page's
// bytes, stable until the matching Unpin; Token is pager-private state
// (a pointer, so passing it through the interface does not allocate).
type Pinned struct {
	Data  []byte
	Token any
}

// Pager is the page-access interface HeapFile needs; the buffer manager
// implements it (storage_test uses the store directly via a trivial
// write-through adapter). Every access of a page is a Pin and an Unpin, or
// one record of a ReadRecords batch, which stands for both; Peek is not an
// access.
type Pager interface {
	// Pin fixes page id in memory and takes its content latch. The caller
	// must Unpin exactly once and must not retain p.Data afterwards.
	Pin(id PageID) (Pinned, error)
	// Unpin releases a pinned page, marking it dirty when dirty is true.
	Unpin(p Pinned, dirty bool)
	// ReadRecords reads a batch of records, placed on their pages by lay, in
	// order: for rids[i] it sets live[i] to whether the record's live flag
	// is set and, if it is, copies the record's first n bytes into
	// out[i*n:]. Each record is one access of its page, as a Pin and an
	// Unpin are. It returns how many records it served: it stops, having
	// done nothing for it, at the first one it could not serve without
	// waiting, and the caller pins that record's page instead.
	ReadRecords(rids []RID, lay Layout, n int, out []byte, live []bool) int
	// Peek copies page id's bytes at off into out when the pager can show
	// them without an access, and reports whether it did.
	Peek(id PageID, off int, out []byte) bool
	// Allocate creates a new zeroed page (resident and dirty).
	Allocate() (PageID, error)
}

// Layout places the records of a slotted page: slot s's live flag is bit
// s%8 of byte Flags+s/8, and its bytes start at Data+s*Stride.
type Layout struct{ Flags, Data, Stride int }

// Slot returns where slot s is: its live flag's byte and bit, and the
// offset of its bytes.
func (l Layout) Slot(s int) (flag int, bit byte, off int) {
	return l.Flags + s>>3, 1 << (s & 7), l.Data + s*l.Stride
}

// Slotted-page layout for fixed-length records:
//
//	[0:2)  numSlots  (uint16, capacity of the page, fixed at format time)
//	[2:4)  recLen    (uint16)
//	[4:4+ceil(numSlots/8))  occupancy bitmap
//	[...]  record slots, recLen bytes each
//
// Fixed-length records make slot arithmetic trivial and match the paper's
// "integral units of tuples fit per page" assumption (Table 1).
const heapHeader = 4

// SlotsPerPage returns how many recLen-byte records fit a page of
// pageSize bytes after the header and bitmap.
func SlotsPerPage(pageSize, recLen int) int {
	if recLen <= 0 || pageSize <= heapHeader+1 {
		return 0
	}
	// Solve n*recLen + ceil(n/8) + header <= pageSize.
	n := (pageSize - heapHeader) / recLen
	for n > 0 && heapHeader+(n+7)/8+n*recLen > pageSize {
		n--
	}
	return n
}

func bitmapGet(page []byte, slot int) bool {
	return page[heapHeader+slot/8]&(1<<uint(slot%8)) != 0
}

func bitmapSet(page []byte, slot int, v bool) {
	if v {
		page[heapHeader+slot/8] |= 1 << uint(slot%8)
	} else {
		page[heapHeader+slot/8] &^= 1 << uint(slot%8)
	}
}

func slotOffset(numSlots, recLen, slot int) int {
	return heapHeader + (numSlots+7)/8 + slot*recLen
}

// HeapFile stores fixed-length records in slotted pages.
type HeapFile struct {
	name     string
	pager    Pager
	recLen   int
	slots    int // per page
	pageSize int
	lay      Layout

	mu sync.Mutex
	// pages lists the file's pages in allocation order and pageIdx maps
	// each back to its index there; freePages are indexes into pages with
	// at least one free slot.
	pages     []PageID
	pageIdx   map[PageID]int
	freePages []int
	liveCount int64
	// held is the set of slots emptied by DeleteHeld and not yet let go by
	// Unhold: their rows were deleted by transactions that are still open,
	// and a rollback puts such a row back where it was, so Insert must not
	// hand the slot to anyone else meanwhile. In memory only: recovery rolls
	// every open transaction back before anyone inserts (AttachPages drops
	// the set).
	held map[RID]struct{}
}

// addPage appends pid to the file's page list. Callers hold h.mu.
func (h *HeapFile) addPage(pid PageID) {
	h.pageIdx[pid] = len(h.pages)
	h.pages = append(h.pages, pid)
}

// NewHeapFile creates an empty heap file of recLen-byte records.
func NewHeapFile(name string, pager Pager, pageSize, recLen int) (*HeapFile, error) {
	slots := SlotsPerPage(pageSize, recLen)
	if slots <= 0 {
		return nil, fmt.Errorf("storage: record length %d does not fit a %d-byte page: %w", recLen, pageSize, ErrInvalidArgument)
	}
	return &HeapFile{
		name: name, pager: pager, recLen: recLen,
		slots: slots, pageSize: pageSize,
		lay:     Layout{Flags: heapHeader, Data: slotOffset(slots, recLen, 0), Stride: recLen},
		pageIdx: make(map[PageID]int),
		held:    make(map[RID]struct{}),
	}, nil
}

// Name returns the file name.
func (h *HeapFile) Name() string { return h.name }

// RecordLen returns the fixed record length.
func (h *HeapFile) RecordLen() int { return h.recLen }

// Slots returns the records-per-page capacity.
func (h *HeapFile) Slots() int { return h.slots }

// Live returns the number of live records.
func (h *HeapFile) Live() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.liveCount
}

// PageIDs returns a copy of the file's page list in allocation order.
func (h *HeapFile) PageIDs() []PageID {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]PageID(nil), h.pages...)
}

func (h *HeapFile) formatPage(page []byte) {
	for i := range page {
		page[i] = 0
	}
	binary.LittleEndian.PutUint16(page[0:2], uint16(h.slots))
	binary.LittleEndian.PutUint16(page[2:4], uint16(h.recLen))
}

// Insert stores rec (len must equal RecordLen) and returns its RID.
func (h *HeapFile) Insert(rec []byte) (RID, error) {
	rid, p, err := h.InsertPinned(rec)
	if err != nil {
		return RID{}, err
	}
	h.Release(p)
	return rid, nil
}

// InsertPinned is Insert that returns with the row's page still pinned and
// latched, the row already on it. A logging caller appends the insert's log
// record and only then calls Release, so the unpin that marks the page dirty
// follows the append, as it does for an update and a delete: the page cannot
// be written back carrying a row whose record the log does not hold yet.
// Until Release nobody else reads or writes the page.
func (h *HeapFile) InsertPinned(rec []byte) (RID, Pinned, error) {
	if len(rec) != h.recLen {
		return RID{}, Pinned{}, fmt.Errorf("storage: %s: record is %d bytes, want %d: %w", h.name, len(rec), h.recLen, ErrInvalidArgument)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for len(h.freePages) > 0 {
		idx := h.freePages[len(h.freePages)-1]
		pid := h.pages[idx]
		p, err := h.pager.Pin(pid)
		if err != nil {
			return RID{}, Pinned{}, err
		}
		for s := 0; s < h.slots; s++ {
			if bitmapGet(p.Data, s) {
				continue
			}
			if _, held := h.held[RID{Page: pid, Slot: uint16(s)}]; held {
				continue
			}
			h.put(p.Data, s, rec)
			// Check whether the page is now full by slot count:
			// conservatively drop it from the free list when the
			// last slot was taken.
			if s == h.slots-1 {
				h.freePages = h.freePages[:len(h.freePages)-1]
			}
			h.liveCount++
			return RID{Page: pid, Slot: uint16(s)}, p, nil
		}
		h.pager.Unpin(p, false)
		h.freePages = h.freePages[:len(h.freePages)-1]
	}
	pid, err := h.pager.Allocate()
	if err != nil {
		return RID{}, Pinned{}, err
	}
	p, err := h.pager.Pin(pid)
	if err != nil {
		return RID{}, Pinned{}, err
	}
	h.formatPage(p.Data)
	h.put(p.Data, 0, rec)
	h.addPage(pid)
	if h.slots > 1 {
		h.freePages = append(h.freePages, len(h.pages)-1)
	}
	h.liveCount++
	return RID{Page: pid, Slot: 0}, p, nil
}

// Release unpins the page InsertPinned returned, marking it dirty.
func (h *HeapFile) Release(p Pinned) { h.pager.Unpin(p, true) }

// put marks slot live on page and copies rec into it.
func (h *HeapFile) put(page []byte, slot int, rec []byte) {
	bitmapSet(page, slot, true)
	off := slotOffset(h.slots, h.recLen, slot)
	copy(page[off:off+h.recLen], rec)
}

// InsertAt places rec at a specific RID, formatting and extending the file
// as needed. It exists for WAL redo, which must reproduce exact RIDs.
func (h *HeapFile) InsertAt(rid RID, rec []byte) error {
	if len(rec) != h.recLen {
		return fmt.Errorf("storage: %s: record is %d bytes, want %d: %w", h.name, len(rec), h.recLen, ErrInvalidArgument)
	}
	if int(rid.Slot) >= h.slots {
		return fmt.Errorf("storage: %s: slot %d out of range: %w", h.name, rid.Slot, ErrInvalidArgument)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	p, err := h.pager.Pin(rid.Page)
	if err != nil {
		return err
	}
	if _, known := h.pageIdx[rid.Page]; !known {
		h.addPage(rid.Page)
		h.freePages = append(h.freePages, len(h.pages)-1)
		if binary.LittleEndian.Uint16(p.Data[0:2]) == 0 {
			h.formatPage(p.Data)
		}
	}
	wasLive := bitmapGet(p.Data, int(rid.Slot))
	h.put(p.Data, int(rid.Slot), rec)
	h.pager.Unpin(p, true)
	if !wasLive {
		h.liveCount++
	}
	return nil
}

// AttachPages reopens the heap over an existing set of pages (the page
// list is catalog metadata, durable in a real system): it adopts the pages
// in order and recounts live records and free slots from the durable
// images. Used after a crash, before WAL redo.
func (h *HeapFile) AttachPages(ids []PageID) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.pages = append([]PageID(nil), ids...)
	h.pageIdx = make(map[PageID]int, len(ids))
	clear(h.held)
	h.freePages = h.freePages[:0]
	h.liveCount = 0
	for i, pid := range h.pages {
		h.pageIdx[pid] = i
		p, err := h.pager.Pin(pid)
		if err != nil {
			return err
		}
		var live int
		for s := 0; s < h.slots; s++ {
			if bitmapGet(p.Data, s) {
				live++
			}
		}
		h.pager.Unpin(p, false)
		h.liveCount += int64(live)
		if live < h.slots {
			h.freePages = append(h.freePages, i)
		}
	}
	return nil
}

// Read copies the first len(out) bytes of the record at rid into out, for
// any 1 <= len(out) <= RecordLen: the buffer's length is the projection, so
// a statement that needs only a record's leading fields copies only those.
// Nothing past len(out) is written, whatever out's capacity. The read is one
// access of the page however many bytes it copies: a ReadRecords of one
// record, whose one-record scratch is borrowed from a pool so that Read
// allocates nothing.
func (h *HeapFile) Read(rid RID, out []byte) error {
	one := oneRead.Get().(*readOne)
	one.rid[0] = rid
	err := h.ReadRecords(one.rid[:], len(out), out, one.live[:])
	live := one.live[0]
	oneRead.Put(one)
	if err == nil && !live {
		err = h.NoRecord(rid)
	}
	return err
}

// readOne is Read's batch of one.
type readOne struct {
	rid  [1]RID
	live [1]bool
}

var oneRead = sync.Pool{New: func() any { return new(readOne) }}

// NoRecord is the error of a read that found no record at rid.
func (h *HeapFile) NoRecord(rid RID) error {
	return fmt.Errorf("storage: %s: no record at %s: %w", h.name, rid, ErrNoRecord)
}

// ReadRecords reads the first n bytes of each record rids names, for any
// 1 <= n <= RecordLen, into consecutive n-byte slots of out — rids[i]'s into
// out[i*n:(i+1)*n] — and sets live[i] to whether rids[i] holds a record; a
// dead slot's bytes in out are left alone. Each record is one access of its
// page, made in order: the pager serves what it can in one visit, a record
// it declines is read through a Pin of its page, and the pager is then asked
// for the rest. An n out of range, or an out or live too short for rids, is
// ErrInvalidArgument before any access; any other error is a pin's, with
// the records before it read.
func (h *HeapFile) ReadRecords(rids []RID, n int, out []byte, live []bool) error {
	if n <= 0 || n > h.recLen || len(out) < len(rids)*n || len(live) < len(rids) {
		return h.badBatch(len(rids), n, len(out), len(live))
	}
	// rids[i:end] name slots that lie on their pages, which is what the
	// pager may be handed; a slot past the page is read through a pin, as
	// a declined one is, and is not live.
	for i, end := 0, 0; i < len(rids); i++ {
		if end <= i {
			for end = i; end < len(rids) && int(rids[end].Slot) < h.slots; end++ {
			}
		}
		if i < end {
			if i += h.pager.ReadRecords(rids[i:end], h.lay, n, out[i*n:], live[i:]); i == len(rids) {
				break
			}
		}
		var err error
		if live[i], err = h.pinRead(rids[i], out[i*n:i*n+n]); err != nil {
			return err
		}
	}
	return nil
}

// badBatch is the error of a ReadRecords call whose buffers do not fit.
func (h *HeapFile) badBatch(records, n, outLen, liveLen int) error {
	if n <= 0 || n > h.recLen {
		return fmt.Errorf("storage: %s: read buffer is %d bytes, want 1..%d: %w", h.name, n, h.recLen, ErrInvalidArgument)
	}
	return fmt.Errorf("storage: %s: %d records need %d bytes and %d flags, have %d and %d: %w",
		h.name, records, records*n, records, outLen, liveLen, ErrInvalidArgument)
}

// pinRead copies the first len(out) bytes of the record at rid into out
// through a pin of its page, and reports whether there was one.
func (h *HeapFile) pinRead(rid RID, out []byte) (bool, error) {
	p, err := h.pager.Pin(rid.Page)
	if err != nil {
		return false, err
	}
	live := int(rid.Slot) < h.slots && bitmapGet(p.Data, int(rid.Slot))
	if live {
		off := slotOffset(h.slots, h.recLen, int(rid.Slot))
		copy(out, p.Data[off:off+len(out)])
	}
	h.pager.Unpin(p, false)
	return live, nil
}

// Peek copies the slot at rid into out (len RecordLen) when the pager can
// show its page without reading it, and reports whether it did. The slot is
// not checked for a live record and the page is not pinned: the bytes are a
// hint, good for deciding what to read ahead and for nothing else.
func (h *HeapFile) Peek(rid RID, out []byte) bool {
	if len(out) != h.recLen || int(rid.Slot) >= h.slots {
		return false
	}
	return h.pager.Peek(rid.Page, slotOffset(h.slots, h.recLen, int(rid.Slot)), out)
}

// Update overwrites the record at rid.
func (h *HeapFile) Update(rid RID, rec []byte) error {
	if len(rec) != h.recLen {
		return fmt.Errorf("storage: %s: record is %d bytes, want %d: %w", h.name, len(rec), h.recLen, ErrInvalidArgument)
	}
	p, err := h.pager.Pin(rid.Page)
	if err != nil {
		return err
	}
	var live bool
	if int(rid.Slot) < h.slots && bitmapGet(p.Data, int(rid.Slot)) {
		live = true
		off := slotOffset(h.slots, h.recLen, int(rid.Slot))
		copy(p.Data[off:off+h.recLen], rec)
	}
	h.pager.Unpin(p, live)
	if !live {
		return h.NoRecord(rid)
	}
	return nil
}

// Delete removes the record at rid and frees its slot for reuse.
func (h *HeapFile) Delete(rid RID) error {
	if err := h.DeleteHeld(rid); err != nil {
		return err
	}
	h.Unhold(rid)
	return nil
}

// DeleteHeld removes the record at rid but keeps its slot out of Insert's
// reach until Unhold(rid). A transaction deleting a row uses it and lets the
// slot go when it ends: were the slot reusable at once, another
// transaction's insert could land in it, and the deleter's rollback, which
// puts the row back at its old RID, would overwrite that insert.
func (h *HeapFile) DeleteHeld(rid RID) error {
	p, err := h.pager.Pin(rid.Page)
	if err != nil {
		return err
	}
	var live bool
	if int(rid.Slot) < h.slots && bitmapGet(p.Data, int(rid.Slot)) {
		live = true
		bitmapSet(p.Data, int(rid.Slot), false)
	}
	h.pager.Unpin(p, live)
	if !live {
		return h.NoRecord(rid)
	}
	h.mu.Lock()
	h.liveCount--
	h.held[rid] = struct{}{}
	h.mu.Unlock()
	return nil
}

// Unhold lets go of a slot DeleteHeld emptied — whether the row is gone for
// good or a rollback has put it back — and makes its page eligible for
// inserts again.
func (h *HeapFile) Unhold(rid RID) {
	h.mu.Lock()
	delete(h.held, rid)
	if i, ok := h.pageIdx[rid.Page]; ok && !slices.Contains(h.freePages, i) {
		h.freePages = append(h.freePages, i)
	}
	h.mu.Unlock()
}

// Scan calls fn for every live record in page order; returning false stops
// the scan. The record slice is only valid during the call.
func (h *HeapFile) Scan(fn func(rid RID, rec []byte) bool) error {
	for _, pid := range h.PageIDs() {
		p, err := h.pager.Pin(pid)
		if err != nil {
			return err
		}
		for s := 0; s < h.slots; s++ {
			if !bitmapGet(p.Data, s) {
				continue
			}
			off := slotOffset(h.slots, h.recLen, s)
			if !fn(RID{Page: pid, Slot: uint16(s)}, p.Data[off:off+h.recLen]) {
				h.pager.Unpin(p, false)
				return nil
			}
		}
		h.pager.Unpin(p, false)
	}
	return nil
}
