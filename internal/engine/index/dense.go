package index

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DenseLimit bounds Dense's keys: every static TPC-C packing (KeyWI, KeyWDC,
// KeyWD and bare ids, with 16-bit warehouse ids) lies below it.
const DenseLimit = 1 << 40

const (
	// pageBits is the log2 of a page's slots; tableBits of a table's pages.
	pageBits  = 12
	tableBits = 12
	pageMask  = 1<<pageBits - 1
	tableMask = 1<<tableBits - 1
)

// ErrKeyRange is returned by Dense.Set for a key at or above DenseLimit, or
// a value that does not fit beside the empty-slot mark.
var ErrKeyRange = errors.New("index: key or value outside the dense range")

// densePage holds 4 096 consecutive keys' slots; a slot stores value+1, so
// the zero slot means absent and a value of 0 still round-trips.
type densePage [1 << pageBits]atomic.Uint64

// denseTable maps 4 096 consecutive pages (2^24 keys).
type denseTable [1 << tableBits]atomic.Pointer[densePage]

// Dense is a radix-paged direct map from a packed key below DenseLimit to a
// uint64 value, for a relation whose keys are probed only by equality: it
// has no order, so no range scan and no min/max. A key's bits split into a
// directory index (the top 16), a table index and a page slot (12 each).
// Tables and pages are allocated on their first Set, so memory grows with
// the keys loaded — about 8 B a key where they are dense, as TPC-C's are —
// and with the largest key only through the directory, one pointer per 2^24
// keys (at most 512 KB).
//
// Get takes no latch: it loads the directory, a table entry, a page entry
// and the slot. The directory is published through an atomic pointer and
// never changed after, entries and slots are atomics. Writers serialize on
// a mutex; a new table publishes a new directory (a copy, grown to reach it
// when it lies past the end), and tables and pages, once published, are
// never removed.
type Dense struct {
	dir atomic.Pointer[[]*denseTable]
	mu  sync.Mutex // serializes Set and Delete
	n   int
}

// NewDense returns an empty map.
func NewDense() *Dense {
	d := &Dense{}
	d.dir.Store(new([]*denseTable))
	return d
}

// slot returns key's slot, or nil if its page was never allocated.
func (d *Dense) slot(key uint64) *atomic.Uint64 {
	dir, hi := *d.dir.Load(), key>>(pageBits+tableBits)
	if hi >= uint64(len(dir)) {
		return nil
	}
	tab := dir[hi]
	if tab == nil {
		return nil
	}
	pg := tab[key>>pageBits&tableMask].Load()
	if pg == nil {
		return nil
	}
	return &pg[key&pageMask]
}

// Get returns the value for key.
func (d *Dense) Get(key uint64) (uint64, bool) {
	s := d.slot(key)
	if s == nil {
		return 0, false
	}
	v := s.Load()
	return v - 1, v != 0
}

// Set adds or replaces key -> val. It refuses a key at or above DenseLimit
// and the value ^uint64(0) with ErrKeyRange.
func (d *Dense) Set(key, val uint64) error {
	if key >= DenseLimit || val == ^uint64(0) {
		return fmt.Errorf("%w: key %#x, value %#x", ErrKeyRange, key, val)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	hi := key >> (pageBits + tableBits)
	dir := *d.dir.Load()
	if hi >= uint64(len(dir)) || dir[hi] == nil {
		grown := make([]*denseTable, max(uint64(len(dir)), hi+1))
		copy(grown, dir)
		grown[hi] = new(denseTable)
		d.dir.Store(&grown)
		dir = grown
	}
	entry := &dir[hi][key>>pageBits&tableMask]
	pg := entry.Load()
	if pg == nil {
		pg = new(densePage)
		entry.Store(pg)
	}
	if pg[key&pageMask].Swap(val+1) == 0 {
		d.n++
	}
	return nil
}

// Delete clears key's slot, returning ErrNotFound if it is empty.
func (d *Dense) Delete(key uint64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := d.slot(key)
	if s == nil || s.Swap(0) == 0 {
		return ErrNotFound
	}
	d.n--
	return nil
}

// Len returns the number of keys.
func (d *Dense) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.n
}
