package db

import (
	"errors"
	"testing"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// openShardPair opens two one-warehouse instances standing in for a home
// shard and a participant shard, both loaded from the same seed (so Item
// is replicated identically, as on symmetric nodes).
func openShardPair(t *testing.T) (home, part *DB) {
	t.Helper()
	for _, d := range []**DB{&home, &part} {
		db, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 4096},
			Options{LockWaitTimeout: 20 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Load(1); err != nil {
			t.Fatal(err)
		}
		*d = db
	}
	return home, part
}

func readStock(t *testing.T, d *DB, w, i int64) StockRec {
	t.Helper()
	rid, ok := d.stockIdx.get(index.KeyWI(w, i))
	if !ok {
		t.Fatalf("no stock (%d,%d)", w, i)
	}
	buf := make([]byte, tpcc.TupleLen[core.Stock])
	if err := d.heaps[core.Stock].Read(storage.UnpackRID(rid), buf); err != nil {
		t.Fatal(err)
	}
	var rec StockRec
	rec.Unmarshal(buf)
	return rec
}

// TestDistNewOrderCommit runs the full happy path of a distributed
// New-Order: home branch with one remote line, participant stock branch,
// participant prepares, home commit decides, participant commits.
func TestDistNewOrderCommit(t *testing.T) {
	home, part := openShardPair(t)
	const gid = 0x10001
	const iid = 42

	s0 := readStock(t, part, 0, iid)

	// Participant first (its vote gates the decision), then home.
	pb, err := part.RemoteStockBegin(gid, []OrderItem{{IID: iid, SupplyW: 0, Qty: 5}})
	if err != nil {
		t.Fatal(err)
	}
	in := NewOrderInput{W: 0, D: 0, C: 0, Items: []OrderItem{
		{IID: 7, SupplyW: 0, Qty: 3},
		{IID: iid, SupplyW: 1, Qty: 5, Remote: true}, // global supplier id 1
	}}
	hb, res, err := home.NewOrderHomeBegin(gid, in)
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteLines != 1 {
		t.Fatalf("RemoteLines = %d, want 1", res.RemoteLines)
	}
	if err := pb.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := hb.Commit(); err != nil {
		t.Fatal(err)
	}
	if committed, known := home.GIDOutcome(gid); !known || !committed {
		t.Fatal("home does not record the gid as committed")
	}
	if err := pb.Commit(); err != nil {
		t.Fatal(err)
	}

	s1 := readStock(t, part, 0, iid)
	if s1.YTD != s0.YTD+5 || s1.RemoteCnt != s0.RemoteCnt+1 || s1.OrderCount != s0.OrderCount+1 {
		t.Fatalf("participant stock not updated: before %+v after %+v", s0, s1)
	}
	// The home order-line records the GLOBAL supplier warehouse id.
	olrid, ok := home.olIdx.get(index.KeyWDOL(0, 0, res.OID, 1))
	if !ok {
		t.Fatal("remote order-line missing on home shard")
	}
	buf := make([]byte, tpcc.TupleLen[core.OrderLine])
	if err := home.heaps[core.OrderLine].Read(storage.UnpackRID(olrid), buf); err != nil {
		t.Fatal(err)
	}
	var ol OrderLineRec
	ol.Unmarshal(buf)
	if ol.SupplyWID != 1 {
		t.Fatalf("order-line SupplyWID = %d, want global id 1", ol.SupplyWID)
	}
	// AllLocal must be 0 on the order row.
	orid, _ := home.orderIdx.get(index.KeyWDO(0, 0, res.OID))
	obuf := make([]byte, tpcc.TupleLen[core.Order])
	if err := home.heaps[core.Order].Read(storage.UnpackRID(orid), obuf); err != nil {
		t.Fatal(err)
	}
	var orec OrderRec
	orec.Unmarshal(obuf)
	if orec.AllLocal != 0 {
		t.Fatal("order with a remote line marked all-local")
	}
}

// TestDistPaymentCommit drives a remote Payment: the customer branch on
// the customer's shard resolves the id (by name), the home branch books
// warehouse/district YTD and history with the resolved id.
func TestDistPaymentCommit(t *testing.T) {
	home, part := openShardPair(t)
	const gid = 0x20001
	const amount = 1234

	rb, cid, selected, err := part.RemotePaymentBegin(gid, 0, 3, true, 0, 5, amount)
	if err != nil {
		t.Fatal(err)
	}
	if selected < 1 {
		t.Fatalf("selected = %d, want >= 1 tuples for a by-name select", selected)
	}
	in := PaymentInput{W: 0, D: 2, AmountCents: amount}
	// Global customer coordinates: warehouse 1 (the participant), district 3.
	hb, err := home.PaymentHomeBegin(gid, in, 1, 3, cid)
	if err != nil {
		t.Fatal(err)
	}
	if err := rb.Prepare(); err != nil {
		t.Fatal(err)
	}
	if err := hb.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := rb.Commit(); err != nil {
		t.Fatal(err)
	}
	crec := readCustomer(t, part, 0, 3, cid)
	if crec.YTDPayCents < amount || crec.PaymentCount == 0 {
		t.Fatalf("customer not updated: %+v", crec)
	}
	// One history row carries the global coordinates.
	found := false
	hlen := tpcc.TupleLen[core.History]
	if err := home.heaps[core.History].Scan(func(_ storage.RID, rec []byte) bool {
		var h HistoryRec
		h.Unmarshal(rec[:hlen])
		if h.CWID == 1 && h.CDID == 3 && h.CID == uint32(cid) && h.AmountCents == amount {
			found = true
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("home history row with global customer coordinates not found")
	}
}

// TestInDoubtRecovery crashes a participant between PREPARE and the
// decision. Recovery must roll the branch back to before-images, surface
// it as in-doubt, and hold exclusive locks on its rows until resolution.
func TestInDoubtRecovery(t *testing.T) {
	for _, commit := range []bool{true, false} {
		name := "resolve-abort"
		if commit {
			name = "resolve-commit"
		}
		t.Run(name, func(t *testing.T) {
			_, part := openShardPair(t)
			const gid = 0x30001
			const iid = 9

			s0 := readStock(t, part, 0, iid)
			pb, err := part.RemoteStockBegin(gid, []OrderItem{{IID: iid, SupplyW: 0, Qty: 7}})
			if err != nil {
				t.Fatal(err)
			}
			if err := pb.Prepare(); err != nil {
				t.Fatal(err)
			}
			// Power loss before any decision arrives.
			if err := part.CrashPowerLoss(rng.New(3)); err != nil {
				t.Fatal(err)
			}
			if err := part.Recover(); err != nil {
				t.Fatal(err)
			}

			ids := part.InDoubt()
			if len(ids) != 1 || ids[0].GID != gid {
				t.Fatalf("in-doubt = %+v, want one branch with gid %#x", ids, gid)
			}
			if got := readStock(t, part, 0, iid); got.YTD != s0.YTD {
				t.Fatalf("in-doubt rows not at before-image: YTD %d, want %d", got.YTD, s0.YTD)
			}
			// The undecided row must be locked: an independent writer times out.
			if _, err := part.RemoteStockBegin(0x30002, []OrderItem{{IID: iid, SupplyW: 0, Qty: 1}}); !errors.Is(err, ErrAborted) {
				t.Fatalf("write to in-doubt row: err = %v, want ErrAborted", err)
			}

			if err := part.ResolveInDoubt(gid, commit); err != nil {
				t.Fatal(err)
			}
			if n := len(part.InDoubt()); n != 0 {
				t.Fatalf("%d branches still in doubt after resolution", n)
			}
			got := readStock(t, part, 0, iid)
			if commit && got.YTD != s0.YTD+7 {
				t.Fatalf("commit resolution: YTD %d, want %d", got.YTD, s0.YTD+7)
			}
			if !commit && got.YTD != s0.YTD {
				t.Fatalf("abort resolution: YTD %d, want %d", got.YTD, s0.YTD)
			}
			// Locks must be free again.
			b, err := part.RemoteStockBegin(0x30003, []OrderItem{{IID: iid, SupplyW: 0, Qty: 1}})
			if err != nil {
				t.Fatalf("row still locked after resolution: %v", err)
			}
			if err := b.Abort(); err != nil {
				t.Fatal(err)
			}

			// The resolution itself must be crash-safe: another power loss
			// replays the decided state.
			want := got.YTD
			if err := part.CrashPowerLoss(rng.New(4)); err != nil {
				t.Fatal(err)
			}
			if err := part.Recover(); err != nil {
				t.Fatal(err)
			}
			if n := len(part.InDoubt()); n != 0 {
				t.Fatalf("resolved branch re-surfaced in doubt after second crash (%d)", n)
			}
			if got := readStock(t, part, 0, iid); got.YTD != want {
				t.Fatalf("decided state lost across crash: YTD %d, want %d", got.YTD, want)
			}
		})
	}
}

// TestPresumedAbort: a coordinator with no durable decision for a gid
// reports unknown, which participants must read as abort. A crashed
// coordinator forgets undecided gids but remembers forced commits.
func TestPresumedAbort(t *testing.T) {
	home, _ := openShardPair(t)
	const gidCommitted, gidForgotten = 0x40001, 0x40002

	in := NewOrderInput{W: 0, D: 0, C: 0, Items: []OrderItem{{IID: 1, SupplyW: 0, Qty: 1}}}
	hb, _, err := home.NewOrderHomeBegin(gidCommitted, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.Commit(); err != nil {
		t.Fatal(err)
	}
	// An aborted distributed transaction: the abort record is best-effort
	// and its gid may never reach the log — outcome stays unknown after a
	// crash, which presumed abort reads as aborted.
	in.D = 1
	hb2, _, err := home.NewOrderHomeBegin(gidForgotten, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := hb2.Abort(); err != nil {
		t.Fatal(err)
	}

	if err := home.CrashPowerLoss(rng.New(5)); err != nil {
		t.Fatal(err)
	}
	if err := home.Recover(); err != nil {
		t.Fatal(err)
	}
	if committed, known := home.GIDOutcome(gidCommitted); !known || !committed {
		t.Fatal("forced commit decision lost across crash")
	}
	if committed, _ := home.GIDOutcome(gidForgotten); committed {
		t.Fatal("aborted gid reads as committed")
	}
}

// TestForsakeLeavesDurableStateAlone: forsaking a prepared branch (dead
// device path) releases its locks without logging; recovery still finds
// the branch in doubt from the durable prepare record.
func TestForsakeLeavesDurableStateAlone(t *testing.T) {
	_, part := openShardPair(t)
	const gid = 0x50001
	pb, err := part.RemoteStockBegin(gid, []OrderItem{{IID: 3, SupplyW: 0, Qty: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := pb.Prepare(); err != nil {
		t.Fatal(err)
	}
	pb.Forsake()
	if err := part.CrashPowerLoss(rng.New(6)); err != nil {
		t.Fatal(err)
	}
	if err := part.Recover(); err != nil {
		t.Fatal(err)
	}
	ids := part.InDoubt()
	if len(ids) != 1 || ids[0].GID != gid {
		t.Fatalf("forsaken prepared branch not in doubt after recovery: %+v", ids)
	}
	if err := part.ResolveInDoubt(gid, false); err != nil {
		t.Fatal(err)
	}
}

// TestDistHomeBranchOtherWarehouseLine: with more than one warehouse per
// instance, a line another warehouse OF THE HOME INSTANCE supplies reaches
// the home branch without the Remote flag. It is still a remote line by
// clause 2.4.2.2 — s_remote_cnt moves and the order is not all-local —
// exactly as DB.NewOrder treats it.
func TestDistHomeBranchOtherWarehouseLine(t *testing.T) {
	d, err := OpenWith(Config{Warehouses: 2, PageSize: 4096, BufferPages: 4096},
		Options{LockWaitTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}
	allLocal := func(oid int64) uint8 {
		t.Helper()
		rid, ok := d.orderIdx.get(index.KeyWDO(0, 0, oid))
		if !ok {
			t.Fatalf("no order (0,0,%d)", oid)
		}
		buf := make([]byte, tpcc.TupleLen[core.Order])
		if err := d.heaps[core.Order].Read(storage.UnpackRID(rid), buf); err != nil {
			t.Fatal(err)
		}
		var rec OrderRec
		rec.Unmarshal(buf)
		return rec.AllLocal
	}

	home0, other0 := readStock(t, d, 0, 7), readStock(t, d, 1, 8)
	hb, res, err := d.NewOrderHomeBegin(0x60001, NewOrderInput{W: 0, D: 0, C: 0, Items: []OrderItem{
		{IID: 7, SupplyW: 0, Qty: 3},
		{IID: 8, SupplyW: 1, Qty: 2},                // warehouse 1 of this instance
		{IID: 42, SupplyW: 9, Qty: 5, Remote: true}, // another shard's warehouse
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := readStock(t, d, 1, 8); got.RemoteCnt != other0.RemoteCnt+1 || got.YTD != other0.YTD+2 {
		t.Fatalf("other-warehouse stock: s_ytd %d -> %d, s_remote_cnt %d -> %d, want +2 and +1",
			other0.YTD, got.YTD, other0.RemoteCnt, got.RemoteCnt)
	}
	if got := readStock(t, d, 0, 7); got.RemoteCnt != home0.RemoteCnt {
		t.Fatalf("home-warehouse stock counted remote: %d -> %d", home0.RemoteCnt, got.RemoteCnt)
	}
	if res.RemoteLines != 2 {
		t.Fatalf("RemoteLines = %d, want 2", res.RemoteLines)
	}

	// No cross-shard line at all: the order is still not all-local.
	hb, res, err = d.NewOrderHomeBegin(0x60002, NewOrderInput{W: 0, D: 0, C: 1, Items: []OrderItem{
		{IID: 9, SupplyW: 1, Qty: 1},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := hb.Commit(); err != nil {
		t.Fatal(err)
	}
	if allLocal(res.OID) != 0 {
		t.Fatal("order with an other-warehouse line marked all-local")
	}
}
