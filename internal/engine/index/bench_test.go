package index

import (
	"testing"

	"tpccmodel/internal/nurand"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

var benchSink uint64

// BenchmarkPointGet prices one stock lookup both ways: a B+tree descent and
// a Dense load, over one warehouse's 100 000 stock keys drawn by NURand as
// New-Order draws its items. Neither side takes a latch here.
func BenchmarkPointGet(b *testing.B) {
	tree, dense := New(), NewDense()
	for i := int64(0); i < tpcc.StockPerWarehouse; i++ {
		tree.Set(KeyWI(0, i), uint64(i))
		if err := dense.Set(KeyWI(0, i), uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	keys := make([]uint64, 1<<16)
	items := nurand.NewGen(nurand.ItemID, rng.New(7))
	for i := range keys {
		keys[i] = KeyWI(0, items.Next()-1)
	}
	for _, c := range []struct {
		name string
		get  func(uint64) (uint64, bool)
	}{{"btree", tree.Get}, {"dense", dense.Get}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				v, _ := c.get(keys[i&(len(keys)-1)])
				benchSink += v
			}
		})
	}
}

// orderLines returns an order-line tree loaded as one warehouse is, 3 000
// orders of 10 lines in each of 10 districts, and the next order id.
func orderLines() (*BTree, int64) {
	lines := New()
	next := int64(tpcc.CustomersPerDistrict)
	for d := int64(0); d < tpcc.DistrictsPerWarehouse; d++ {
		for o := int64(0); o < next; o++ {
			for l := int64(0); l < tpcc.ItemsPerOrder; l++ {
				lines.Set(KeyWDOL(0, d, o, l), uint64(o))
			}
		}
	}
	return lines, next
}

// BenchmarkBTreeSet appends one order line at a time, an order's lines to
// a random district in turn, as New-Order does.
func BenchmarkBTreeSet(b *testing.B) {
	lines, next := orderLines()
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i += tpcc.ItemsPerOrder {
		d := r.Int63n(tpcc.DistrictsPerWarehouse)
		for l := int64(0); l < tpcc.ItemsPerOrder; l++ {
			lines.Set(KeyWDOL(0, d, next, l), uint64(l))
		}
		next++
	}
}

// BenchmarkBTreeSeek is the 20-entry range scan Stock-Level and
// Order-Status do over the order lines.
func BenchmarkBTreeSeek(b *testing.B) {
	lines, next := orderLines()
	r := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo, _ := RangeWDOLOrder(0, r.Int63n(tpcc.DistrictsPerWarehouse), r.Int63n(next-2))
		it := lines.Seek(lo)
		for n := 0; n < 20; n++ {
			_, v, _ := it.Next()
			benchSink += v
		}
	}
}
