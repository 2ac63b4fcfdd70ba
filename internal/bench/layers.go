package bench

import (
	"runtime"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/mvcc"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// layerSegs segments of a fixed operation count time each layer operation;
// like a window, the figure is the median segment at reference speed.
const layerSegs = 15

// layerSink keeps results of read-only operations alive.
var layerSink uint64

// opNS times fn, which performs ops operations, once per segment and returns
// the median nanoseconds per operation at reference speed.
func opNS(ops int, fn func()) float64 {
	per := make([]float64, layerSegs)
	for s := range per {
		f := speedFactor(calibrate())
		t0 := time.Now()
		fn()
		per[s] = float64(time.Since(t0).Nanoseconds()) * f / float64(ops)
	}
	return Median(per)
}

// must panics on an error from a layer fixture: the fixtures are fixed
// inputs on fault-free devices, so an error here is a bug in the benchmark
// or the engine, not a condition of the environment.
func must(err error) {
	if err != nil {
		panic("bench: layer pass: " + err.Error())
	}
}

// layerPass calls each engine layer's public API directly, with keys drawn
// the way the cpu-resident workload draws them (NURand item and customer
// ids over one warehouse), and returns the *_ns metrics.
func layerPass(seed uint64) map[string]float64 {
	r := rng.New(seed)
	items := nurand.NewGen(nurand.ItemID, r)
	out := map[string]float64{}
	for _, layer := range []func(){
		func() { indexLayer(out, items, r) },
		func() { lockLayer(out, items) },
		func() { bufmgrLayer(out, items) },
		func() { heapLayer(out, items) },
		func() { walLayer(out) },
		func() { mvccLayer(out, items) },
	} {
		runtime.GC() // drop the previous layer's fixtures; the run paces no collection of its own
		layer()
	}
	return out
}

// indexLayer: point gets on a stock-sized tree, inserts of ascending
// order-line keys into a loaded order-line tree, and the 20-entry range scan
// Stock-Level and Order-Status do.
func indexLayer(out map[string]float64, items *nurand.Gen, r *rng.RNG) {
	const ops = 20000
	stock := index.New()
	for i := int64(0); i < tpcc.StockPerWarehouse; i++ {
		stock.Set(index.KeyWI(0, i), uint64(i))
	}
	out["index.get_ns"] = opNS(ops, func() {
		for i := 0; i < ops; i++ {
			v, _ := stock.Get(index.KeyWI(0, items.Next()-1))
			layerSink += v
		}
	})

	lines := index.New()
	nextOrder := int64(tpcc.CustomersPerDistrict)
	for o := int64(0); o < nextOrder; o++ {
		for d := int64(0); d < tpcc.DistrictsPerWarehouse; d++ {
			for l := int64(0); l < tpcc.ItemsPerOrder; l++ {
				lines.Set(index.KeyWDOL(0, d, o, l), uint64(o))
			}
		}
	}
	out["index.seek20_ns"] = opNS(ops/10, func() {
		for i := 0; i < ops/10; i++ {
			lo, _ := index.RangeWDOLOrder(0, r.Int63n(tpcc.DistrictsPerWarehouse), r.Int63n(nextOrder-2))
			it := lines.Seek(lo)
			for n := 0; n < 20; n++ {
				_, v, _ := it.Next()
				layerSink += v
			}
		}
	})
	out["index.set_ns"] = opNS(ops, func() {
		for i := 0; i < ops/tpcc.ItemsPerOrder; i++ {
			d := r.Int63n(tpcc.DistrictsPerWarehouse)
			for l := int64(0); l < tpcc.ItemsPerOrder; l++ {
				lines.Set(index.KeyWDOL(0, d, nextOrder, l), uint64(l))
			}
			nextOrder++
		}
	})
}

// lockLayer: one transaction's worth of uncontended row locks (a New-Order
// takes about forty), then the release of all of them.
func lockLayer(out map[string]float64, items *nurand.Gen) {
	const txns = 1000
	m := lock.NewManager()
	id := lock.TxnID(0)
	out["lock.acquire40_release_ns"] = opNS(txns, func() {
		for i := 0; i < txns; i++ {
			id++
			for k := 0; k < 40; k++ {
				mode := lock.Shared
				if k%2 == 0 {
					mode = lock.Exclusive
				}
				must(m.Acquire(id, lock.Key{Table: uint32(core.Stock), Row: uint64(items.Next())}, mode))
			}
			m.ReleaseAll(id)
		}
	})
}

// bufmgrLayer: a pin and unpin of a resident page, and of a page that has to
// be read in over a clean victim.
func bufmgrLayer(out map[string]float64, items *nurand.Gen) {
	const ops, pages = 20000, 4096
	fill := func(m *bufmgr.Manager) {
		for i := 0; i < pages; i++ {
			_, err := m.Allocate()
			must(err)
		}
		must(m.FlushAll())
	}
	pin := func(m *bufmgr.Manager, id storage.PageID) {
		p, err := m.Pin(id)
		must(err)
		layerSink += uint64(p.Data[0])
		m.Unpin(p, false)
	}
	store, err := storage.NewStore(4096)
	must(err)
	hit := bufmgr.New(store, 2*pages)
	fill(hit)
	out["bufmgr.pin_hit_ns"] = opNS(ops, func() {
		for i := 0; i < ops; i++ {
			pin(hit, storage.PageID(items.Next()%pages))
		}
	})

	store, err = storage.NewStore(4096)
	must(err)
	miss := bufmgr.New(store, pages/16)
	fill(miss)
	next := storage.PageID(0)
	out["bufmgr.pin_miss_ns"] = opNS(ops/4, func() {
		// Cycling through sixteen times the pool makes every pin a miss.
		for i := 0; i < ops/4; i++ {
			pin(miss, next)
			next = (next + 1) % pages
		}
	})
}

// heapLayer: stock-sized records in a resident heap file.
func heapLayer(out map[string]float64, items *nurand.Gen) {
	const ops = 20000
	store, err := storage.NewStore(4096)
	must(err)
	pool := bufmgr.New(store, 16384)
	recLen := tpcc.TupleLen[core.Stock]
	h, err := storage.NewHeapFile("stock", pool, 4096, recLen)
	must(err)
	rec := make([]byte, recLen)
	rids := make([]storage.RID, tpcc.StockPerWarehouse)
	for i := range rids {
		rec[0] = byte(i)
		rids[i], err = h.Insert(rec)
		must(err)
	}
	out["storage.heap_read_ns"] = opNS(ops, func() {
		for i := 0; i < ops; i++ {
			must(h.Read(rids[items.Next()-1], rec))
		}
	})
	out["storage.heap_update_ns"] = opNS(ops, func() {
		for i := 0; i < ops; i++ {
			must(h.Update(rids[items.Next()-1], rec))
		}
	})
	lines, err := storage.NewHeapFile("order-line", pool, 4096, tpcc.TupleLen[core.OrderLine])
	must(err)
	line := make([]byte, tpcc.TupleLen[core.OrderLine])
	out["storage.heap_insert_ns"] = opNS(ops, func() {
		for i := 0; i < ops; i++ {
			_, err := lines.Insert(line)
			must(err)
		}
	})
}

// walLayer: an update record carrying both stock images, and a commit
// record with its force on a free log device.
func walLayer(out map[string]float64) {
	const ops = 2000
	l := wal.New()
	img := make([]byte, tpcc.TupleLen[core.Stock])
	txn := uint64(0)
	out["wal.append_ns"] = opNS(ops, func() {
		for i := 0; i < ops; i++ {
			_, err := l.Append(wal.Record{Txn: txn, Type: wal.RecUpdate, Table: uint32(core.Stock), RID: uint64(i), Before: img, After: img})
			must(err)
		}
	})
	out["wal.commit_ns"] = opNS(ops, func() {
		for i := 0; i < ops; i++ {
			txn++
			_, err := l.Append(wal.Record{Txn: txn, Type: wal.RecCommit})
			must(err)
		}
	})
}

// mvccLayer: a snapshot read of a row no one is writing (per read, inside a
// transaction of twenty), and a transaction that versions ten rows and
// commits.
func mvccLayer(out map[string]float64, items *nurand.Gen) {
	const txns = 1000
	s := mvcc.NewStore()
	var t mvcc.Txn
	var ret mvcc.RetireSet
	img := make([]byte, tpcc.TupleLen[core.Stock])
	key := func() mvcc.Key { return mvcc.Key{Table: uint32(core.Stock), Row: uint64(items.Next())} }
	out["mvcc.write_commit_ns"] = opNS(txns, func() {
		for i := 0; i < txns; i++ {
			s.Begin(&t, &ret)
			for k := 0; k < tpcc.ItemsPerOrder; k++ {
				must(s.Write(&t, key(), img))
			}
			s.Commit(&t, &ret)
		}
	})
	out["mvcc.read_ns"] = opNS(20*txns, func() {
		for i := 0; i < txns; i++ {
			s.Begin(&t, &ret)
			for k := 0; k < 20; k++ {
				if s.Read(&t, key(), true, img) {
					layerSink++
				}
			}
			s.Commit(&t, &ret)
		}
	})
}
