package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// The local procedures and the 2PC branch entry points share one body
// per transaction. These gates keep it that way: whatever a procedure
// does to the database, its branch form must do too — same rows, same
// images, same record ids, same log volume — in every -cc mode. They run
// on the tiny fixture, so the `-race -short` engine leg covers them.

// tinyItems is the number of items (and of stock rows per warehouse) in
// the procedure fixture.
const tinyItems = tinyDistricts

// openTinyProcs is openTiny plus what whole procedures need: items
// 0..7, the stock rows of a second warehouse (1, 0..7), and in every
// district customers 1 and 2 sharing customer 0's last name (ordinal 0),
// all three in the name index — a by-name select reads three tuples and
// settles on customer 1.
func openTinyProcs(t *testing.T, cc CCMode) *DB {
	t.Helper()
	d := openTiny(t, cc)
	tx := d.NewSession().begin()
	buf := make([]byte, tpcc.TupleLen[core.Customer])
	ins := func(rel core.Relation, g *relIndex, key uint64) uint64 {
		t.Helper()
		rid, err := tx.insertKeyed(rel, g, key, buf[:tpcc.TupleLen[rel]])
		if err != nil {
			t.Fatal(err)
		}
		return rid.Pack()
	}
	for i := int64(0); i < tinyItems; i++ {
		ir := ItemRec{IID: uint32(i), PriceCents: uint32(100 + i)}
		ir.Marshal(buf[:tpcc.TupleLen[core.Item]])
		ins(core.Item, d.itemIdx, uint64(i))

		sr := StockRec{IID: uint32(i), WID: 1, Quantity: 100}
		sr.Marshal(buf[:tpcc.TupleLen[core.Stock]])
		ins(core.Stock, d.stockIdx, index.KeyWI(1, i))
	}
	for dist := int64(0); dist < tinyDistricts; dist++ {
		rid, ok := d.customerIdx.get(custKey(dist))
		if !ok {
			t.Fatalf("fixture customer (0,%d,0) missing from index", dist)
		}
		tx.setIdx(d.custNameIdx, index.KeyWDNC(0, dist, 0, 0), rid)
		for c := int64(1); c <= 2; c++ {
			cr := CustomerRec{ID: uint32(c), DID: uint32(dist), CreditLimit: 50000}
			cr.Marshal(buf)
			rid := ins(core.Customer, d.customerIdx, index.KeyWDC(0, dist, c))
			tx.setIdx(d.custNameIdx, index.KeyWDNC(0, dist, 0, c), rid)
		}
	}
	if err := tx.commit(); err != nil {
		t.Fatal(err)
	}
	return d
}

// tinyOrder builds a New-Order for district dist with n distinct items
// starting at first; the last `other` lines are supplied by warehouse 1.
func tinyOrder(dist, first int64, n, other int) NewOrderInput {
	in := NewOrderInput{W: 0, D: dist, C: first % 3}
	for l := 0; l < n; l++ {
		it := OrderItem{IID: (first + int64(l)) % tinyItems, Qty: 1 + (first+int64(l))%9}
		if l >= n-other {
			it.SupplyW = 1
		}
		in.Items = append(in.Items, it)
	}
	return in
}

// commitBranches finishes a distributed transaction the way a coordinator
// does: the participant prepares, the home commit decides, the participant
// commits. part is nil for a transaction with no participant.
func commitBranches(t *testing.T, home, part *Branch) {
	t.Helper()
	if part != nil {
		if err := part.Prepare(); err != nil {
			t.Fatal(err)
		}
	}
	if err := home.Commit(); err != nil {
		t.Fatal(err)
	}
	if part != nil {
		if err := part.Commit(); err != nil {
			t.Fatal(err)
		}
	}
}

// branchNewOrder runs in on d through the branch entry points. With
// split, the lines warehouse 1 supplies run as a participant branch
// (RemoteStockBegin) and carry the Remote flag in the home branch — both
// against this one instance, they touch disjoint rows, and since a gid
// has one branch per instance the participant runs under partGID(gid);
// without it the home branch runs every line itself.
func branchNewOrder(t *testing.T, d *DB, gid uint64, in NewOrderInput, split bool) {
	t.Helper()
	var part *Branch
	if split {
		home := in
		home.Items = append([]OrderItem(nil), in.Items...)
		var remote []OrderItem
		for i, it := range in.Items {
			if it.SupplyW != in.W {
				remote = append(remote, it)
				home.Items[i].Remote = true
			}
		}
		in = home
		if len(remote) > 0 {
			var err error
			if part, err = d.RemoteStockBegin(partGID(gid), remote); err != nil {
				t.Fatal(err)
			}
		}
	}
	hb, _, err := d.NewOrderHomeBegin(gid, in)
	if err != nil {
		t.Fatal(err)
	}
	commitBranches(t, hb, part)
}

// partGID is the gid a test's participant branch runs under when it shares
// an instance with its home branch.
func partGID(gid uint64) uint64 { return gid | 1<<40 }

// branchPayment runs in on d as a remote Payment's two branches.
func branchPayment(t *testing.T, d *DB, gid uint64, in PaymentInput) {
	t.Helper()
	pb, cid, _, err := d.RemotePaymentBegin(partGID(gid), in.CW, in.CD, in.ByName, in.C, in.NameOrd, in.AmountCents)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := d.PaymentHomeBegin(gid, in, in.CW, in.CD, cid)
	if err != nil {
		t.Fatal(err)
	}
	commitBranches(t, hb, pb)
}

// TestLocalBranchDifferential runs one seeded schedule — by-id and
// by-name Payments, New-Orders with home-warehouse lines only and with
// lines another warehouse of the instance supplies — through the local
// procedures on one instance and through Begin/Prepare/Commit on an
// identically loaded one, and requires identical committed state.
func TestLocalBranchDifferential(t *testing.T) {
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			local, branch := openTinyProcs(t, cc), openTinyProcs(t, cc)
			r := rng.New(17)
			for i := 0; i < 96; i++ {
				gid := uint64(i + 1)
				dist, pick := r.Int63n(tinyDistricts), r.Int63n(tinyItems)
				switch i % 4 {
				case 0, 1:
					in := PaymentInput{
						W: 0, D: dist, CW: 0, CD: r.Int63n(tinyDistricts),
						ByName: i%4 == 1, C: pick % 3, AmountCents: uint32(1 + r.Int63n(5000)),
					}
					if err := local.Payment(in); err != nil {
						t.Fatal(err)
					}
					branchPayment(t, branch, gid, in)
				case 2:
					in := tinyOrder(dist, pick, 2+int(r.Int63n(4)), 0)
					if _, err := local.NewOrder(in); err != nil {
						t.Fatal(err)
					}
					branchNewOrder(t, branch, gid, in, false)
				case 3:
					in := tinyOrder(dist, pick, 3+int(r.Int63n(3)), 1+int(r.Int63n(2)))
					if _, err := local.NewOrder(in); err != nil {
						t.Fatal(err)
					}
					branchNewOrder(t, branch, gid, in, i%8 == 7)
				}
			}

			if hl, hb := stateHash(t, local), stateHash(t, branch); hl != hb {
				t.Fatalf("committed state diverges: local=%016x branch=%016x", hl, hb)
			}
			for _, rel := range core.Relations() {
				if nl, nb := local.heaps[rel].Live(), branch.heaps[rel].Live(); nl != nb {
					t.Fatalf("%s: %d records local, %d through branches", rel, nl, nb)
				}
			}
			// Commit, prepare and abort records differ by design; the
			// row-changing ones may not.
			for _, typ := range []wal.RecType{wal.RecUpdate, wal.RecInsert} {
				if nl, nb := countLog(t, local, typ), countLog(t, branch, typ); nl != nb {
					t.Fatalf("%s records: %d local, %d through branches", typ, nl, nb)
				}
			}
		})
	}
}

func countLog(t *testing.T, d *DB, typ wal.RecType) int {
	t.Helper()
	recs, _, err := d.log.Scan()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		if r.Type == typ {
			n++
		}
	}
	return n
}

// TestBranchesRetireVersionChains: a committed transaction's version
// chains are pruned by the next transaction that begins on the same txn
// value, so branches must run on the DB's free-list sessions like local
// procedures do, and the free list must never drop one (a dropped session
// takes its retire ring with it). One goroutine reuses one session, so
// what stays live is a few transactions' worth of chains however many ran:
// an absolute bound, the same with and without the race detector. A leak
// is 4 chains a New-Order here, 8000 in all.
func TestBranchesRetireVersionChains(t *testing.T) {
	const orders, maxChains = 2000, 64
	for _, cc := range []CCMode{CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			local, branch := openTinyProcs(t, cc), openTinyProcs(t, cc)
			for i := int64(0); i < orders; i++ {
				in := tinyOrder(i%tinyDistricts, i, 2, 0)
				if _, err := local.NewOrder(in); err != nil {
					t.Fatal(err)
				}
				branchNewOrder(t, branch, uint64(i+1), in, false)
			}
			nl, nb := local.VersionChains(), branch.VersionChains()
			t.Logf("%d New-Orders: %d chains local, %d through branches", orders, nl, nb)
			if nl > maxChains || nb > maxChains {
				t.Fatalf("version chains leak: %d live after %d New-Orders through DB.NewOrder, %d through branches, want <= %d",
					nl, orders, nb, maxChains)
			}
		})
	}
}
