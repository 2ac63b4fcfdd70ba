package db

import (
	"fmt"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// CheckConsistency verifies the TPC-C consistency conditions (the
// benchmark's clause 3.3.2 family) against the live database:
//
//	C1: for every district, d_next_o_id - 1 equals the maximum order id
//	    present (and the maximum pending new-order id, when any exists);
//	C2: every new-order row has a matching order row;
//	C3: every order's ol_cnt equals its number of order-line rows;
//	C4: warehouse YTD equals the sum of its districts' YTDs plus any
//	    difference is explained by history rows (we check the global
//	    form: sum(w_ytd) == sum(d_ytd) == sum(h_amount)).
//
// It returns the first violation found, or nil. The check takes no locks
// and is meant to run on a quiesced database: in tests, after recovery,
// and after every tpcc-engine run, on each node of a cluster.
func (d *DB) CheckConsistency() error {
	// Gather per-district aggregates in one pass over each relation.
	type distAgg struct {
		nextOID    int64
		maxOrder   int64
		maxPending int64
		anyPending bool
		ytd        uint64
	}
	nDist := d.cfg.Warehouses * tpcc.DistrictsPerWarehouse
	aggs := make([]distAgg, nDist)
	for i := range aggs {
		aggs[i].maxOrder = -1
		aggs[i].maxPending = -1
	}
	distOf := func(w, dist int64) int { return int(w)*tpcc.DistrictsPerWarehouse + int(dist) }

	err := d.heaps[core.District].Scan(func(_ storage.RID, rec []byte) bool {
		var r DistrictRec
		r.Unmarshal(rec)
		a := &aggs[distOf(int64(r.WID), int64(r.ID))]
		a.nextOID = int64(r.NextOID)
		a.ytd = r.YTDCents
		return true
	})
	if err != nil {
		return err
	}

	olCount := make(map[uint64]int) // packed (w,d,o) -> lines
	if err := d.heaps[core.OrderLine].Scan(func(_ storage.RID, rec []byte) bool {
		var r OrderLineRec
		r.Unmarshal(rec)
		olCount[index.KeyWDO(int64(r.WID), int64(r.DID), int64(r.OID))]++
		return true
	}); err != nil {
		return err
	}

	var c3Err error
	if err := d.heaps[core.Order].Scan(func(_ storage.RID, rec []byte) bool {
		var r OrderRec
		r.Unmarshal(rec)
		a := &aggs[distOf(int64(r.WID), int64(r.DID))]
		if int64(r.OID) > a.maxOrder {
			a.maxOrder = int64(r.OID)
		}
		key := index.KeyWDO(int64(r.WID), int64(r.DID), int64(r.OID))
		if got := olCount[key]; got != int(r.OLCount) {
			c3Err = fmt.Errorf("db: C3: order (%d,%d,%d) has %d lines, ol_cnt says %d",
				r.WID, r.DID, r.OID, got, r.OLCount)
			return false
		}
		return true
	}); err != nil {
		return err
	}
	if c3Err != nil {
		return c3Err
	}

	var c2Err error
	if err := d.heaps[core.NewOrder].Scan(func(_ storage.RID, rec []byte) bool {
		var r NewOrderRec
		r.Unmarshal(rec)
		a := &aggs[distOf(int64(r.WID), int64(r.DID))]
		a.anyPending = true
		if int64(r.OID) > a.maxPending {
			a.maxPending = int64(r.OID)
		}
		// A new-order row is filed under its order's key.
		if _, ok := d.idx[idxOrder].get(indexes[idxNewOrder].key(rec)); !ok {
			c2Err = fmt.Errorf("db: C2: new-order (%d,%d,%d) has no order row",
				r.WID, r.DID, r.OID)
			return false
		}
		return true
	}); err != nil {
		return err
	}
	if c2Err != nil {
		return c2Err
	}

	var distYTD uint64
	for i, a := range aggs {
		if a.maxOrder != a.nextOID-1 {
			return fmt.Errorf("db: C1: district %d has next_o_id %d but max order %d",
				i, a.nextOID, a.maxOrder)
		}
		if a.anyPending && a.maxPending > a.nextOID-1 {
			return fmt.Errorf("db: C1: district %d has pending order %d beyond next_o_id %d",
				i, a.maxPending, a.nextOID)
		}
		distYTD += a.ytd
	}

	var whYTD, histTotal uint64
	if err := d.heaps[core.Warehouse].Scan(func(_ storage.RID, rec []byte) bool {
		var r WarehouseRec
		r.Unmarshal(rec)
		whYTD += r.YTDCents
		return true
	}); err != nil {
		return err
	}
	if err := d.heaps[core.History].Scan(func(_ storage.RID, rec []byte) bool {
		var r HistoryRec
		r.Unmarshal(rec)
		histTotal += uint64(r.AmountCents)
		return true
	}); err != nil {
		return err
	}
	if whYTD != histTotal || distYTD != histTotal {
		return fmt.Errorf("db: C4: warehouse YTD %d, district YTD %d, history %d diverge",
			whYTD, distYTD, histTotal)
	}
	return nil
}
