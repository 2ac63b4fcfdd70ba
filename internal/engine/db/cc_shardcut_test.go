package db

import (
	"testing"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

// The cross-shard snapshot cut: each shard's MVCC store stamps commits
// from its OWN clock, and a distributed transaction commits its branches
// at two different local instants. A global reader that takes one local
// snapshot per shard between those instants observes the transaction
// torn — applied on the shard that committed first, invisible on the
// other. This is the documented gap: snapshots are per-shard cuts, not
// global ones, exactly as ErrWriteConflict documents FCW and TestWriteSkew
// documents SI's anomaly. Closing it would take shared-clock (or
// HLC/TrueTime-style) commit stamping plus a consistent-cut protocol for
// readers; this engine instead pins the behaviour here so the caveat
// stays load-bearing. Note ssi does NOT close it either: SSI validation
// is per-shard (each store checks its own edge graph at Prepare), so
// serializability, like snapshot consistency, stops at the shard
// boundary.

// openCutPair opens two mvcc-family instances standing in for a home
// and a participant shard.
func openCutPair(t *testing.T, cc CCMode) (home, part *DB) {
	t.Helper()
	for _, d := range []**DB{&home, &part} {
		db, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 4096, CC: cc},
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

// snapStockQty snap-reads stock (0,iid) quantity under a fresh snapshot
// transaction on d.
func snapStockQty(t *testing.T, d *DB, iid int64) (int32, *txn) {
	t.Helper()
	tx := d.NewSession().begin()
	rid, ok := d.stockIdx.get(index.KeyWI(0, iid))
	if !ok {
		t.Fatalf("no stock (0,%d)", iid)
	}
	buf := make([]byte, tpcc.TupleLen[core.Stock])
	live, err := tx.snapRead(core.Stock, index.KeyWI(0, iid), storage.UnpackRID(rid), buf)
	if err != nil || !live {
		t.Fatalf("stock snapshot read: live=%v err=%v", live, err)
	}
	var rec StockRec
	rec.Unmarshal(buf)
	return rec.Quantity, tx
}

// TestDistSnapshotCutTorn witnesses the torn cut deterministically: a
// two-branch distributed stock update, home committed, participant
// prepared but not yet committed. A snapshot on the home shard sees the
// new quantity while a simultaneous snapshot on the participant still
// sees the old one — a global read no serial execution of the
// distributed transaction could produce. After the participant commits,
// a fresh snapshot pair is consistent again.
func TestDistSnapshotCutTorn(t *testing.T) {
	for _, cc := range []CCMode{CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			home, part := openCutPair(t, cc)
			const gid = 0x77001
			const iid = 42

			h0, tx := snapStockQty(t, home, iid)
			if err := tx.commit(); err != nil {
				t.Fatal(err)
			}
			p0, tx := snapStockQty(t, part, iid)
			if err := tx.commit(); err != nil {
				t.Fatal(err)
			}

			// One distributed transaction updating stock on both shards.
			hb, err := home.RemoteStockBegin(gid, []OrderItem{{IID: iid, SupplyW: 0, Qty: 5}})
			if err != nil {
				t.Fatal(err)
			}
			pb, err := part.RemoteStockBegin(gid, []OrderItem{{IID: iid, SupplyW: 0, Qty: 5}})
			if err != nil {
				t.Fatal(err)
			}
			if err := pb.Prepare(); err != nil {
				t.Fatal(err)
			}
			// The home branch's commit is the global decision...
			if err := hb.Commit(); err != nil {
				t.Fatal(err)
			}

			// ...and in the window before the participant applies it, a
			// snapshot pair reads the transaction HALF-APPLIED. Both reads
			// are locally consistent; the cut is global and torn.
			hq, htx := snapStockQty(t, home, iid)
			pq, ptx := snapStockQty(t, part, iid)
			if hq == h0 {
				t.Fatalf("home snapshot still sees pre-commit quantity %d", hq)
			}
			if pq != p0 {
				t.Fatalf("participant snapshot sees %d, want pre-commit %d — torn-cut witness lost", pq, p0)
			}
			if err := htx.commit(); err != nil {
				t.Fatal(err)
			}
			if err := ptx.commit(); err != nil {
				t.Fatal(err)
			}

			if err := pb.Commit(); err != nil {
				t.Fatal(err)
			}
			// Once every branch is committed, fresh local snapshots agree.
			hq2, htx2 := snapStockQty(t, home, iid)
			pq2, ptx2 := snapStockQty(t, part, iid)
			if hq2 != pq2 {
				t.Fatalf("post-commit snapshots disagree: home %d, part %d", hq2, pq2)
			}
			if err := htx2.commit(); err != nil {
				t.Fatal(err)
			}
			if err := ptx2.commit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
