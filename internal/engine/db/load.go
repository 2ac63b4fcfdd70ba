package db

import (
	"fmt"

	"tpccmodel/internal/core"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// Load populates the database per the benchmark's initial-population
// rules, scaled by cfg.Warehouses:
//
//   - 100,000 items;
//   - per warehouse: 1 warehouse row, 100,000 stock rows, 10 districts;
//   - per district: 3,000 customers (the first 1,000 name ordinals appear
//     once each; the rest are drawn NURand(255,0,999), so ~3 customers
//     share a name), and 3,000 initial orders — one per customer in a
//     random permutation — of 10 uniform items each, the most recent 900
//     of which are undelivered (pending in new-order);
//   - district next-order-id counters set to 3,000.
//
// The load bypasses the WAL (a real system loads then checkpoints); Load
// finishes with a checkpoint so the durable store holds the loaded state.
func (d *DB) Load(seed uint64) error {
	r := rng.New(seed)
	nameGen := nurand.NewGen(nurand.Params{A: 255, X: 0, Y: tpcc.NamesPerDistrict - 1}, r)
	buf := make([]byte, 1024)

	// Items (shared across warehouses).
	for i := 0; i < tpcc.ItemCount; i++ {
		rec := ItemRec{IID: uint32(i), ImageID: uint32(r.Int63n(10000)),
			PriceCents: uint32(100 + r.Int63n(9900))}
		copy(rec.Name[:], LastName(int(r.Int63n(1000))))
		if err := d.loadRow(core.Item, rec.Marshal, buf); err != nil {
			return err
		}
	}

	for w := 0; w < d.cfg.Warehouses; w++ {
		wrec := WarehouseRec{ID: uint32(w), TaxBP: uint32(r.Int63n(2001))}
		if err := d.loadRow(core.Warehouse, wrec.Marshal, buf); err != nil {
			return err
		}

		for i := 0; i < tpcc.StockPerWarehouse; i++ {
			srec := StockRec{IID: uint32(i), WID: uint32(w),
				Quantity: int32(10 + r.Int63n(91))}
			if err := d.loadRow(core.Stock, srec.Marshal, buf); err != nil {
				return err
			}
		}

		for dist := 0; dist < tpcc.DistrictsPerWarehouse; dist++ {
			drec := DistrictRec{ID: uint32(dist), WID: uint32(w),
				TaxBP: uint32(r.Int63n(2001)), NextOID: tpcc.CustomersPerDistrict}
			if err := d.loadRow(core.District, drec.Marshal, buf); err != nil {
				return err
			}

			if err := d.loadDistrict(r, nameGen, w, dist, buf); err != nil {
				return err
			}
		}
	}
	return d.Checkpoint()
}

func (d *DB) loadDistrict(r *rng.RNG, nameGen *nurand.Gen, w, dist int, buf []byte) error {
	// Customers.
	for c := 0; c < tpcc.CustomersPerDistrict; c++ {
		nameOrd := c
		if c >= tpcc.NamesPerDistrict {
			nameOrd = int(nameGen.Next())
		}
		crec := CustomerRec{
			ID: uint32(c), DID: uint32(dist), WID: uint32(w),
			NameOrd: uint32(nameOrd), CreditLimit: 5000000,
			DiscountBP: uint32(r.Int63n(5001)),
		}
		copy(crec.Data[:], LastName(nameOrd))
		if err := d.loadRow(core.Customer, crec.Marshal, buf); err != nil {
			return err
		}
	}

	// Initial orders: one per customer in a random permutation.
	perm := make([]int64, tpcc.CustomersPerDistrict)
	r.Perm(perm)
	for o := 0; o < tpcc.CustomersPerDistrict; o++ {
		delivered := o < tpcc.CustomersPerDistrict-900
		orec := OrderRec{
			OID: uint32(o), CID: uint32(perm[o]), WID: uint16(w), DID: uint8(dist),
			OLCount: tpcc.ItemsPerOrder, AllLocal: 1, EntryTick: d.nextTick(),
		}
		if delivered {
			orec.CarrierID = uint8(1 + r.Int63n(10))
		}
		if err := d.loadRow(core.Order, orec.Marshal, buf); err != nil {
			return err
		}

		for l := 0; l < tpcc.ItemsPerOrder; l++ {
			ol := OrderLineRec{
				OID: uint32(o), IID: uint32(r.Int63n(tpcc.ItemCount)),
				SupplyWID: uint16(w), WID: uint16(w), DID: uint8(dist),
				Number: uint8(l), Quantity: 5,
				AmountCents: uint32(r.Int63n(999999)),
			}
			if delivered {
				ol.DeliveryTick = orec.EntryTick
			}
			if err := d.loadRow(core.OrderLine, ol.Marshal, buf); err != nil {
				return err
			}
		}

		if !delivered {
			no := NewOrderRec{OID: uint32(o), WID: uint16(w), DID: uint8(dist)}
			if err := d.loadRow(core.NewOrder, no.Marshal, buf); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadRow marshals a row into buf with marshal, inserts it into rel's heap
// and files it, as RebuildIndexes would.
func (d *DB) loadRow(rel core.Relation, marshal func([]byte), buf []byte) error {
	rec := buf[:tpcc.TupleLen[rel]]
	marshal(rec)
	rid, err := d.heaps[rel].Insert(rec)
	if err != nil {
		return err
	}
	d.file(rel, rec, rid)
	return nil
}

// VerifyCounts checks the loaded cardinalities against Table 1, returning
// an error naming the first mismatch.
func (d *DB) VerifyCounts() error {
	w := int64(d.cfg.Warehouses)
	want := map[core.Relation]int64{
		core.Warehouse: w,
		core.District:  w * tpcc.DistrictsPerWarehouse,
		core.Customer:  w * tpcc.CustomersPerWarehouse,
		core.Stock:     w * tpcc.StockPerWarehouse,
		core.Item:      tpcc.ItemCount,
		core.Order:     w * tpcc.DistrictsPerWarehouse * tpcc.CustomersPerDistrict,
		core.OrderLine: w * tpcc.DistrictsPerWarehouse * tpcc.CustomersPerDistrict * tpcc.ItemsPerOrder,
		core.NewOrder:  w * tpcc.DistrictsPerWarehouse * 900,
	}
	for rel, n := range want {
		if got := d.heaps[rel].Live(); got != n {
			return fmt.Errorf("db: %s has %d rows, want %d", rel, got, n)
		}
	}
	return nil
}
