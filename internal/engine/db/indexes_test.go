package db

import (
	"math"
	"slices"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// TestIndexKeysReadTheKeyColumns: each index's key, read straight off a row
// image, is the packing of the key columns the record was marshalled with,
// whatever its other columns hold.
func TestIndexKeysReadTheKeyColumns(t *testing.T) {
	r := rng.New(7)
	u := func() uint32 { return uint32(r.Uint64()) }
	for n := 0; n < 200; n++ {
		w, dist, c, name := r.Int63n(1<<16), r.Int63n(10), r.Int63n(3000), r.Int63n(1000)
		o, item, line := r.Int63n(1<<28), r.Int63n(tpcc.ItemCount), r.Int63n(15)
		rows := map[core.Relation]marshaler{
			core.Warehouse: &WarehouseRec{ID: uint32(w), TaxBP: u(), YTDCents: r.Uint64()},
			core.District:  &DistrictRec{ID: uint32(dist), WID: uint32(w), TaxBP: u(), NextOID: u()},
			core.Customer: &CustomerRec{ID: uint32(c), DID: uint32(dist), WID: uint32(w), NameOrd: uint32(name),
				BalanceCents: int64(r.Uint64()), PaymentCount: u()},
			core.Stock: &StockRec{IID: uint32(item), WID: uint32(w), Quantity: int32(u()), YTD: r.Uint64()},
			core.Item:  &ItemRec{IID: uint32(item), ImageID: u(), PriceCents: u()},
			core.Order: &OrderRec{OID: uint32(o), CID: uint32(c), WID: uint16(w), DID: uint8(dist),
				OLCount: uint8(u()), CarrierID: uint8(u()), AllLocal: 1, EntryTick: r.Uint64()},
			core.NewOrder: &NewOrderRec{OID: uint32(o), WID: uint16(w), DID: uint8(dist)},
			core.OrderLine: &OrderLineRec{OID: uint32(o), IID: u(), SupplyWID: uint16(u()), WID: uint16(w),
				DID: uint8(dist), Number: uint8(line), Quantity: uint8(u()), AmountCents: u(), DeliveryTick: r.Uint64()},
		}
		want := [numIndexes]uint64{
			idxWarehouse: uint64(w),
			idxDistrict:  index.KeyWD(w, dist),
			idxCustomer:  index.KeyWDC(w, dist, c),
			idxCustName:  index.KeyWDNC(w, dist, name, c),
			idxStock:     index.KeyWI(w, item),
			idxItem:      uint64(item),
			idxOrder:     index.KeyWDO(w, dist, o),
			idxCustOrder: index.KeyWDCO(w, dist, c, o),
			idxNewOrder:  index.KeyWDO(w, dist, o),
			idxOrderLine: index.KeyWDOL(w, dist, o, line),
		}
		for i, x := range indexes {
			rec := make([]byte, tpcc.TupleLen[x.rel])
			rows[x.rel].Marshal(rec)
			if got := x.key(rec); got != want[i] {
				t.Fatalf("index %d (%s) files %+v under %#x, want %#x", i, x.rel, rows[x.rel], got, want[i])
			}
		}
	}
}

// TestLiveIndexesMatchRebuild: the indexes are derived state, so whichever
// path filed or unfiled a row — the load, committed procedures, a rollback
// of inserts and of a delete, in-doubt resolution redoing a branch's inserts
// — the live indexes must hold exactly what RebuildIndexes derives from the
// heaps. In every -cc mode: a seeded two-worker run on one warehouse (its
// rollbacks are write-conflict losers under mvcc and ssi; 2PL's run seldom
// draws a deadlock victim), then a New-Order and a Delivery rolled back after
// their inserts and deletes, then two prepared branches — a participant's
// stock update and a home New-Order's inserts — brought through a power
// loss and resolved as committed.
func TestLiveIndexesMatchRebuild(t *testing.T) {
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 1 << 15, CC: cc})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Load(1); err != nil {
				t.Fatal(err)
			}
			if err := RunConcurrent(d, 42, tpcc.DefaultMix(), 2000, 2); err != nil {
				t.Fatal(err)
			}
			t.Logf("%v: %d commits, %d rollbacks", cc, d.Commits(), d.Aborts())
			matchRebuild(t, d, "the run")

			items := []OrderItem{{IID: 11, SupplyW: 0, Qty: 2}, {IID: 12, SupplyW: 0, Qty: 3}}
			tx := d.NewSession().begin()
			if _, err := tx.newOrder(NewOrderInput{W: 0, D: 3, C: 5, Items: items}); err != nil {
				t.Fatal(err)
			}
			if err := tx.rollbackWith(0); err != nil {
				t.Fatal(err)
			}
			tx = d.NewSession().begin()
			for dist := int64(0); dist < tpcc.DistrictsPerWarehouse; dist++ {
				if ok, err := tx.deliverDistrict(DeliveryInput{W: 0, Carrier: 4}, dist); err != nil || !ok {
					t.Fatalf("district %d: delivered %v, %v", dist, ok, err)
				}
			}
			if err := tx.rollbackWith(0); err != nil {
				t.Fatal(err)
			}
			matchRebuild(t, d, "the rolled-back New-Order and Delivery")

			const stockGID, orderGID = 0x50001, 0x50002
			pb, err := d.RemoteStockBegin(stockGID, []OrderItem{{IID: 9, SupplyW: 0, Qty: 7}})
			if err != nil {
				t.Fatal(err)
			}
			hb, _, err := d.NewOrderHomeBegin(orderGID, NewOrderInput{W: 0, D: 4, C: 6, Items: items})
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []*Branch{pb, hb} {
				if err := b.Prepare(); err != nil {
					t.Fatal(err)
				}
			}
			if err := d.CrashPowerLoss(rng.New(3)); err != nil {
				t.Fatal(err)
			}
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			if n := len(d.InDoubt()); n != 2 {
				t.Fatalf("%d branches in doubt after the power loss, want 2", n)
			}
			for _, gid := range []uint64{stockGID, orderGID} {
				if err := d.ResolveInDoubt(gid, true); err != nil {
					t.Fatal(err)
				}
			}
			matchRebuild(t, d, "the resolved branches")
			if err := d.CheckConsistency(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// matchRebuild fails t unless d's live indexes equal what RebuildIndexes
// makes of the heaps.
func matchRebuild(t *testing.T, d *DB, after string) {
	t.Helper()
	live := indexPairs(t, d)
	if err := d.RebuildIndexes(); err != nil {
		t.Fatal(err)
	}
	rebuilt := indexPairs(t, d)
	for i, x := range indexes {
		if !slices.Equal(live[i], rebuilt[i]) {
			t.Errorf("after %s, index %d (%s) holds %d entries, a rebuild %d; first difference at %d",
				after, i, x.rel, len(live[i]), len(rebuilt[i]), firstDiff(live[i], rebuilt[i]))
		}
	}
}

// indexPairs lists each index's (key, value) entries: a B+tree's by a full
// ascent, a Dense index's by probing the key of every row of its relation's
// heap (value math.MaxUint64 for a key it does not hold, a value Dense
// refuses to store) and then its count.
func indexPairs(t *testing.T, d *DB) [numIndexes][][2]uint64 {
	t.Helper()
	var out [numIndexes][][2]uint64
	for i, x := range indexes {
		g := d.idx[i]
		if !x.dense {
			g.ascendRange(0, math.MaxUint64, func(k, v uint64) bool {
				out[i] = append(out[i], [2]uint64{k, v})
				return true
			})
			continue
		}
		err := d.heaps[x.rel].Scan(func(_ storage.RID, rec []byte) bool {
			k := x.key(rec)
			v, ok := g.get(k)
			if !ok {
				v = math.MaxUint64
			}
			out[i] = append(out[i], [2]uint64{k, v})
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		out[i] = append(out[i], [2]uint64{uint64(g.dense.Len())})
	}
	return out
}

// firstDiff returns the first position at which a and b differ.
func firstDiff(a, b [][2]uint64) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
}
