package db

import (
	"sync"
	"testing"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// TestGoldenEvictionRun pins what the buffer pool DECIDES on a one-worker
// run under eviction pressure: W=1 (18 932 pages) in a pool a third of
// that, load plus 2 000 default-mix transactions. The constants were
// recorded on the commit before page I/O left the partition mutex; with one
// worker the overlap changes nothing and the clean-ahead writer writes in
// place, so hits, misses, evictions, per-relation misses, store reads and
// the committed state must all be bit-identical. Only the write count may
// drift, and only up: a page the cleaner wrote and a transaction then
// dirtied again is written twice. WAL-rule forces are pinned too, as a share
// of the run's page writes: a victim was last dirtied long before the log's
// durable point, so writing it back forces nothing. While write-back forced
// the whole log whatever the page, the figure was 918 forces for 1 570 page
// writes (58 %): every victim written while a transaction was open.
func TestGoldenEvictionRun(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	const (
		hits, misses, evicts = 674451, 9842, 22612
		reads                = 9842
		writes               = 24007 // after the closing checkpoint
		hash                 = 0xdc33fb59f63ee388
	)
	relMisses := map[core.Relation]int64{
		core.Warehouse: 1, core.District: 0, core.Customer: 3709,
		core.Stock: 4221, core.Item: 1634, core.Order: 66,
		core.NewOrder: 4, core.OrderLine: 207, core.History: 0,
	}
	d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 6300})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1993); err != nil {
		t.Fatal(err)
	}
	loadWrites := d.StoreStats().Writes
	if err := NewRunner(d, 7, tpcc.DefaultMix()).Run(2000); err != nil {
		t.Fatal(err)
	}
	if syncs, runWrites := d.log.Syncs(), d.StoreStats().Writes-loadWrites; runWrites < 1000 || syncs*100 > runWrites {
		t.Errorf("%d WAL-rule forces for %d page writes, want at most 1%%", syncs, runWrites)
	}
	if bs := d.BufferStats(); bs.Hits != hits || bs.Misses != misses || bs.Evicts != evicts {
		t.Errorf("buffer decisions moved: %+v, want hits %d misses %d evicts %d", bs, hits, misses, evicts)
	}
	for rel, s := range d.RelationStats() {
		if s.Misses != relMisses[rel] {
			t.Errorf("%v: %d misses, want %d", rel, s.Misses, relMisses[rel])
		}
	}
	if got := d.StoreStats().Reads; got != reads {
		t.Errorf("store reads = %d, want %d", got, reads)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.StoreStats().Writes; got < writes || got > writes+writes/100 {
		t.Errorf("store writes = %d, want %d plus at most 1%%", got, writes)
	}
	if got := stateHash(t, d); got != hash {
		t.Errorf("state hash %#x, want %#x", got, uint64(hash))
	}
}

// meetingDisk counts the data-area page reads in flight at once — reads
// only, so that the cleaner's writes cannot stand in for a second worker's
// miss. Until two have met, each one lingers for a partner: an engine that
// can overlap misses then shows it within a few of them, whatever the
// machine's speed, and one that serializes them under a mutex never does,
// however long it runs.
type meetingDisk struct {
	*storage.MemDisk
	mu       sync.Mutex
	armed    bool // set once the database is loaded
	inflight int
	maxSeen  int
	met      chan struct{} // closed once two reads were in flight together
}

func (d *meetingDisk) enter() {
	d.mu.Lock()
	d.inflight++
	armed := d.armed
	if armed && d.inflight > d.maxSeen {
		if d.maxSeen < 2 && d.inflight >= 2 {
			close(d.met)
		}
		d.maxSeen = d.inflight
	}
	d.mu.Unlock()
	if armed {
		select {
		case <-d.met:
		case <-time.After(5 * time.Millisecond):
		}
	}
}

func (d *meetingDisk) leave() {
	d.mu.Lock()
	d.inflight--
	d.mu.Unlock()
}

func (d *meetingDisk) Read(id storage.PageID, area storage.Area, buf []byte) error {
	if area == storage.AreaData {
		d.enter()
		defer d.leave()
	}
	return d.MemDisk.Read(id, area, buf)
}

// TestMissPathOverlaps: two workers missing in one buffer partition must
// get their page reads to the device at the same time. The check is a count
// of reads in flight, not a timing.
func TestMissPathOverlaps(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	for _, cc := range []CCMode{CC2PL, CCMVCC} {
		disk := &meetingDisk{MemDisk: storage.NewMemDisk(), met: make(chan struct{})}
		d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 256, CC: cc}, Options{Disk: disk})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Load(3); err != nil {
			t.Fatal(err)
		}
		disk.mu.Lock()
		disk.armed = true
		disk.mu.Unlock()
		if _, err := RunConcurrentPolicy(d, 17, tpcc.DefaultMix(), 200, 2, DefaultRetryPolicy()); err != nil {
			t.Fatal(err)
		}
		if err := d.CheckConsistency(); err != nil {
			t.Fatalf("%v: %v", cc, err)
		}
		disk.mu.Lock()
		n := disk.maxSeen
		disk.mu.Unlock()
		if n < 2 {
			t.Errorf("%v: at most %d data-area page read in flight with two workers: the miss path does not overlap", cc, n)
		}
	}
}
