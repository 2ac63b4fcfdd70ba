package db

import (
	"sync"
	"testing"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// TestGoldenEvictionRun pins what the buffer pool DECIDES on a one-worker
// run under eviction pressure: W=1 (18 932 pages) in a pool a third of
// that, load plus 2 000 default-mix transactions. With one worker the
// overlap of page I/O changes nothing and the clean-ahead writer writes in
// place, so the counts below are exact; only the write count may drift, and
// only up: a page the cleaner wrote and a transaction then dirtied again is
// written twice. WAL-rule forces are pinned too, as a share of the run's
// page writes: a victim was last dirtied long before the log's durable
// point, so writing it back forces nothing. While write-back forced the
// whole log whatever the page, the figure was 918 forces for 1 570 page
// writes (58 %): every victim written while a transaction was open.
//
// The pool evicts, so every transaction reads its declared pages ahead
// (plan.go). The rule pinned for that: a claim is counted nowhere, so hits +
// misses are the accesses of the run without read-ahead plus the read-aheads
// no pin ever claimed; and the committed state is the same. The split moves:
// a resident page the plan passes over is not touched, so a reservation can
// evict it before the transaction gets to it — a hit without read-ahead, a
// miss with it. Here that happens to one customer page and one item page: +2
// misses, reads and evictions, -2 hits. The parent's values are beside the
// constants.
func TestGoldenEvictionRun(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	const (
		hits, misses, evicts = 674449, 9844, 22614 // no read-ahead: 674451, 9842, 22612
		reads                = 9844                // 9842
		accesses             = 674451 + 9842       // hits + misses without read-ahead
		writes               = 24007               // after the closing checkpoint
		hash                 = 0xdc33fb59f63ee388
	)
	relMisses := map[core.Relation]int64{
		core.Warehouse: 1, core.District: 0, core.Customer: 3710, // 3709
		core.Stock: 4221, core.Item: 1635, core.Order: 66, // item 1634
		core.NewOrder: 4, core.OrderLine: 207, core.History: 0,
	}
	d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 6300})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1993); err != nil {
		t.Fatal(err)
	}
	var readAheads, claims int64
	d.SetBufferTap(func(_ storage.PageID, _ int, ev bufmgr.Event) {
		switch ev {
		case bufmgr.ReadAhead:
			readAheads++
		case bufmgr.Claim:
			claims++
		}
	})
	loadWrites := d.StoreStats().Writes
	if err := NewRunner(d, 7, tpcc.DefaultMix()).Run(2000); err != nil {
		t.Fatal(err)
	}
	d.SetBufferTap(nil)
	if syncs, runWrites := d.log.Syncs(), d.StoreStats().Writes-loadWrites; runWrites < 1000 || syncs*100 > runWrites {
		t.Errorf("%d WAL-rule forces for %d page writes, want at most 1%%", syncs, runWrites)
	}
	bs := d.BufferStats()
	if bs.Hits != hits || bs.Misses != misses || bs.Evicts != evicts {
		t.Errorf("buffer decisions moved: %+v, want hits %d misses %d evicts %d", bs, hits, misses, evicts)
	}
	t.Logf("%d read-aheads, %d claimed", readAheads, claims)
	if readAheads < 1000 {
		t.Errorf("%d read-aheads in an evicting run: the plans did not run", readAheads)
	}
	if got := bs.Accesses() - (readAheads - claims); got != accesses {
		t.Errorf("%d accesses less %d unclaimed read-aheads = %d, want %d", bs.Accesses(), readAheads-claims, got, accesses)
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

// TestMissPathOverlaps: two workers missing in the buffer pool must
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
		if _, err := RunConcurrentPolicy(d, 17, tpcc.DefaultMix(), 200, 2); err != nil {
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
