package shard

import (
	"errors"
	"sync"
	"testing"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/fault"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

func openCluster(t *testing.T, shards int) *Cluster {
	t.Helper()
	c, err := Open(DefaultConfig(shards))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// stockRow scans shard d for the (local warehouse, item) stock tuple.
func stockRow(t *testing.T, d *db.DB, w, i int64) db.StockRec {
	t.Helper()
	var rec db.StockRec
	found := false
	err := d.Heap(core.Stock).Scan(func(_ storage.RID, b []byte) bool {
		var r db.StockRec
		r.Unmarshal(b[:tpcc.TupleLen[core.Stock]])
		if int64(r.WID) == w && int64(r.IID) == i {
			rec, found = r, true
			return false
		}
		return true
	})
	if err != nil || !found {
		t.Fatalf("stock (%d,%d): err=%v found=%v", w, i, err, found)
	}
	return rec
}

func customerRow(t *testing.T, d *db.DB, w, dd, c int64) db.CustomerRec {
	t.Helper()
	var rec db.CustomerRec
	found := false
	err := d.Heap(core.Customer).Scan(func(_ storage.RID, b []byte) bool {
		var r db.CustomerRec
		r.Unmarshal(b[:tpcc.TupleLen[core.Customer]])
		if int64(r.WID) == w && int64(r.DID) == dd && int64(r.ID) == c {
			rec, found = r, true
			return false
		}
		return true
	})
	if err != nil || !found {
		t.Fatalf("customer (%d,%d,%d): err=%v found=%v", w, dd, c, err, found)
	}
	return rec
}

// recoverAll recovers every down shard and resolves all in-doubt
// branches, looping because a resolution-window kill can take a shard
// back down.
func recoverAll(t *testing.T, c *Cluster, r *rng.RNG) {
	t.Helper()
	for round := 0; round < 2+int(fault.NumShardKillPoints); round++ {
		ok := true
		for id, s := range c.shards {
			if !s.Down() {
				continue
			}
			if err := c.RecoverShard(id, r); err != nil {
				ok = false
			}
		}
		if err := c.ResolveInDoubtAll(); err != nil {
			ok = false
		}
		if ok {
			return
		}
	}
	t.Fatal("cluster did not recover within the round budget")
}

// checkAtomicity asserts the exact cluster-wide invariant: stock YTD and
// order-line quantity grew by the same amount since base.
func checkAtomicity(t *testing.T, c *Cluster, base clusterBaseline) {
	t.Helper()
	live, err := measureCluster(c)
	if err != nil {
		t.Fatal(err)
	}
	if d1, d2 := live.stockYTD-base.stockYTD, live.olQty-base.olQty; d1 != d2 {
		t.Fatalf("cross-shard atomicity: stock YTD +%d vs order-line qty +%d", d1, d2)
	}
}

func TestCrossShardNewOrder(t *testing.T) {
	c := openCluster(t, 3)
	const iid = 5
	s0 := stockRow(t, c.Shard(1).DB, 0, iid)

	// Home shard 0, one line supplied by shard 1 (global warehouse 1).
	res, err := c.ExecNewOrder(db.NewOrderInput{W: 0, D: 0, C: 0, Items: []db.OrderItem{
		{IID: 7, SupplyW: 0, Qty: 2},
		{IID: iid, SupplyW: 1, Qty: 4},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RemoteLines != 1 {
		t.Fatalf("RemoteLines = %d, want 1", res.RemoteLines)
	}
	s1 := stockRow(t, c.Shard(1).DB, 0, iid)
	if s1.YTD != s0.YTD+4 || s1.RemoteCnt != s0.RemoteCnt+1 {
		t.Fatalf("participant stock not updated: before %+v after %+v", s0, s1)
	}
	if st := c.Shard(0).Stats(); st.DistCommits != 1 {
		t.Fatalf("coordinator DistCommits = %d, want 1", st.DistCommits)
	}
	if st := c.Shard(1).Stats(); st.ParticipantCommits != 1 {
		t.Fatalf("participant ParticipantCommits = %d, want 1", st.ParticipantCommits)
	}

	// A fully local order on shard 2 takes the fast path.
	if _, err := c.ExecNewOrder(db.NewOrderInput{W: 2, D: 1, C: 1, Items: []db.OrderItem{
		{IID: 11, SupplyW: 2, Qty: 1},
	}}); err != nil {
		t.Fatal(err)
	}
	if st := c.Shard(2).Stats(); st.LocalCommits != 1 || st.DistCommits != 0 {
		t.Fatalf("local fast path miscounted: %+v", st)
	}
	if err := c.CheckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestHomeShardOtherWarehouseLine: with two warehouses per shard, a line
// supplied by the home shard's OTHER warehouse runs in the home branch of
// a distributed New-Order, and is still a remote line (clause 2.4.2.2):
// its s_remote_cnt moves, as it does when the whole order is shard-local.
func TestHomeShardOtherWarehouseLine(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.WarehousesPerShard = 2
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const iid = 8
	// Global warehouses 0,1 live on shard 0 and 2,3 on shard 1. The second
	// order has no cross-shard line and takes the local fast path.
	for _, items := range [][]db.OrderItem{
		{{IID: 7, SupplyW: 0, Qty: 2}, {IID: iid, SupplyW: 1, Qty: 3}, {IID: 5, SupplyW: 2, Qty: 4}},
		{{IID: 7, SupplyW: 0, Qty: 2}, {IID: iid, SupplyW: 1, Qty: 3}},
	} {
		before := stockRow(t, c.Shard(0).DB, 1, iid)
		if _, err := c.ExecNewOrder(db.NewOrderInput{W: 0, D: 0, C: 0, Items: items}); err != nil {
			t.Fatal(err)
		}
		after := stockRow(t, c.Shard(0).DB, 1, iid)
		if after.YTD != before.YTD+3 || after.RemoteCnt != before.RemoteCnt+1 {
			t.Fatalf("%d-line order: other-warehouse stock s_ytd %d -> %d, s_remote_cnt %d -> %d, want +3 and +1",
				len(items), before.YTD, after.YTD, before.RemoteCnt, after.RemoteCnt)
		}
	}
	if st := c.Shard(0).Stats(); st.DistCommits != 1 || st.LocalCommits != 1 {
		t.Fatalf("shard 0 commits: dist %d local %d, want 1 and 1", st.DistCommits, st.LocalCommits)
	}
}

// scripted is a terminal whose every New-Order is the one given, so a
// db.Runner's own attempt loop, backoff and shed run on a crafted input.
type scripted struct {
	terminal
	in db.NewOrderInput
}

func (s scripted) NewOrder(db.NewOrderInput) (db.NewOrderResult, error) {
	return s.ExecNewOrder(s.in)
}

// allNewOrder is the mix that makes a Runner issue nothing else.
var allNewOrder = tpcc.Mix{core.TxnNewOrder: 1}

// TestCrossShardDeadlockLiveness: two workers issue New-Orders that take
// the two shards' stock rows in opposite orders — worker w's participant
// branch locks the other shard's row first, then its home branch wants the
// row the other worker's participant holds — a cycle neither shard's
// deadlock detector can see. Only the lock wait timeout breaks it, and the
// terminal's default retry policy must then get every transaction
// acknowledged within two attempts: the wait that expires first loses one
// attempt and releases the other. Each round is made to deadlock: a gate
// branch holds each home warehouse row until both workers have taken their
// remote row and parked behind it, and both gates open at the same instant,
// so the two waits of the cycle begin together; the lock manager's
// per-wait jitter is what keeps them from expiring together, aborting
// both workers and restarting them in step.
func TestCrossShardDeadlockLiveness(t *testing.T) {
	c := openCluster(t, 2)
	base, err := measureCluster(c)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	deadline := time.Now().Add(time.Minute)
	items := [2]int64{11, 12} // worker w's own stock row is (warehouse w, items[w])
	aborts, worst := 0, 0
	for round := 0; round < rounds; round++ {
		var gates [2]*db.Branch
		var parked [2]int64
		for s := range gates {
			d := c.Shard(s).DB
			if gates[s], err = d.PaymentHomeBegin(c.nextGID(s), db.PaymentInput{AmountCents: 1}, 0, 0, 0); err != nil {
				t.Fatal(err)
			}
			_, parked[s], _ = d.LockCounts()
		}
		var wg sync.WaitGroup
		var rns [2]*db.Runner
		var errs [2]error
		for w := range rns {
			in := db.NewOrderInput{W: int64(w), D: int64(round), C: int64(w), Items: []db.OrderItem{
				{IID: items[w], SupplyW: int64(w), Qty: int64(1 + round)},
				{IID: items[1-w], SupplyW: int64(1 - w), Qty: int64(2 + w)},
			}}
			rns[w] = db.NewRunnerOn(scripted{terminal{c}, in}, uint64(2*round+w), allNewOrder)
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[w] = rns[w].RunOne()
			}()
		}
		for s := range gates {
			for {
				if _, waits, _ := c.Shard(s).DB.LockCounts(); waits > parked[s] {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("round %d: worker %d never reached its home shard", round, s)
				}
				time.Sleep(50 * time.Microsecond)
			}
		}
		for _, g := range gates {
			if err := g.Abort(); err != nil {
				t.Fatal(err)
			}
		}
		wg.Wait()
		for w, rn := range rns {
			attempts := int(rn.Retries()) + 1
			if errs[w] != nil || rn.Sheds() != 0 {
				t.Fatalf("round %d worker %d: not acknowledged after %d attempts: %v", round, w, attempts, errs[w])
			}
			aborts += attempts - 1
			worst = max(worst, attempts)
		}
	}

	// 2PL on a fault-free device aborts only deadlock victims and expired
	// waits, and no shard saw a deadlock: every abort was a timeout.
	if aborts == 0 {
		t.Fatal("no transaction was ever aborted: the cross-shard cycle never formed")
	}
	for s := 0; s < 2; s++ {
		if _, _, deadlocks := c.Shard(s).DB.LockCounts(); deadlocks != 0 {
			t.Fatalf("shard %d detected %d local deadlocks; the cycle should be invisible to it", s, deadlocks)
		}
	}
	t.Logf("%d rounds: %d lock-wait-timeout aborts, at most %d attempts for one transaction", rounds, aborts, worst)
	if worst > 2 {
		t.Fatalf("a transaction took %d attempts: the two waits of a cycle expired together and the workers retried in step", worst)
	}
	if n := c.Quiesce(0); n > 0 {
		t.Fatalf("%d participant commits pending on a healthy cluster", n)
	}
	checkAtomicity(t, c, base)
	if err := c.CheckAll(); err != nil {
		t.Fatal(err)
	}
}

func TestCrossShardPayment(t *testing.T) {
	c := openCluster(t, 3)
	const cid = 3
	c0 := customerRow(t, c.Shard(1).DB, 0, 2, cid)

	// Home warehouse 0, customer resident on shard 1 (global warehouse 1).
	if err := c.ExecPayment(db.PaymentInput{
		W: 0, D: 1, CW: 1, CD: 2, ByName: false, C: cid, AmountCents: 500,
	}); err != nil {
		t.Fatal(err)
	}
	// One selected tuple + one write-back, counted at the router.
	if m := c.Xval(); m.Payments != 1 || m.UCust != 1 || m.RCCust != 2 {
		t.Fatalf("Appendix A after one remote Payment by id: %+v, want 1 payment, U_cust 1, RC_cust 2", m)
	}
	c1 := customerRow(t, c.Shard(1).DB, 0, 2, cid)
	if c1.YTDPayCents != c0.YTDPayCents+500 || c1.PaymentCount != c0.PaymentCount+1 {
		t.Fatalf("remote customer not updated: before %+v after %+v", c0, c1)
	}
	// The home history row carries the GLOBAL customer coordinates.
	found := false
	hlen := tpcc.TupleLen[core.History]
	err := c.Shard(0).DB.Heap(core.History).Scan(func(_ storage.RID, b []byte) bool {
		var h db.HistoryRec
		h.Unmarshal(b[:hlen])
		if h.CWID == 1 && h.CDID == 2 && h.CID == cid && h.AmountCents == 500 {
			found = true
			return false
		}
		return true
	})
	if err != nil || !found {
		t.Fatalf("home history row with global coords: err=%v found=%v", err, found)
	}
	if err := c.CheckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestKillPoints kills a shard inside each 2PC protocol window and
// asserts the cluster recovers to an exact, fully resolved state.
func TestKillPoints(t *testing.T) {
	cases := []struct {
		name    string
		point   KillPoint
		victim  int
		wantErr error // nil = the transaction must be acknowledged
		// applied reports whether the acked/aborted outcome must leave
		// the participant updates visible after recovery.
		applied bool
	}{
		// Second participant dies mid-prepare: global abort, no updates.
		{"mid-prepare-participant", fault.KillMidPrepare, 2, ErrShardDown, false},
		// Participant dies after voting yes: the decision is still
		// committed; recovery resolves the in-doubt branch to commit.
		{"after-prepare-participant", fault.KillAfterPrepare, 1, nil, true},
		// Coordinator dies before deciding: presumed abort.
		{"after-prepare-coordinator", fault.KillAfterPrepare, 0, ErrCoordinatorDown, false},
		// Participant dies after the durable decision, before its own
		// commit: forsaken, resolved to commit at recovery.
		{"before-participant-commit", fault.KillBeforeParticipantCommit, 1, nil, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := openCluster(t, 3)
			base, err := measureCluster(c)
			if err != nil {
				t.Fatal(err)
			}
			const iid = 21
			p1stock := stockRow(t, c.Shard(1).DB, 0, iid)

			fired := false
			c.SetKillHook(func(p KillPoint, gid uint64) {
				if p == tc.point && !fired {
					fired = true
					c.KillShard(tc.victim)
				}
			})
			res, execErr := c.ExecNewOrder(db.NewOrderInput{W: 0, D: 0, C: 0,
				Items: []db.OrderItem{
					{IID: iid, SupplyW: 1, Qty: 6},
					{IID: 33, SupplyW: 2, Qty: 2},
				}})
			c.SetKillHook(nil)
			if !fired {
				t.Fatal("kill point never fired")
			}
			if tc.wantErr == nil {
				if execErr != nil {
					t.Fatalf("exec: %v, want acknowledged commit", execErr)
				}
				if res.OID == 0 && res.TotalCents == 0 {
					t.Fatal("acknowledged commit returned an empty result")
				}
			} else if !errors.Is(execErr, tc.wantErr) {
				t.Fatalf("exec err = %v, want %v", execErr, tc.wantErr)
			}

			if n := c.Quiesce(0); n > 0 {
				t.Logf("%d participant commits parked for recovery", n)
			}
			recoverAll(t, c, rng.New(99))
			for _, s := range c.shards {
				if n := len(s.DB.InDoubt()); n > 0 {
					t.Fatalf("shard %d: %d orphaned in-doubt branches", s.ID, n)
				}
			}
			checkAtomicity(t, c, base)
			if err := c.CheckAll(); err != nil {
				t.Fatal(err)
			}
			got := stockRow(t, c.Shard(1).DB, 0, iid)
			if tc.applied && got.YTD != p1stock.YTD+6 {
				t.Fatalf("acked update lost: participant YTD %d, want %d", got.YTD, p1stock.YTD+6)
			}
			if !tc.applied && got.YTD != p1stock.YTD {
				t.Fatalf("aborted update leaked: participant YTD %d, want %d", got.YTD, p1stock.YTD)
			}
		})
	}
}

// TestKillDuringResolve re-kills the participant inside its own in-doubt
// resolution; a second recovery round must settle it.
func TestKillDuringResolve(t *testing.T) {
	c := openCluster(t, 3)
	base, err := measureCluster(c)
	if err != nil {
		t.Fatal(err)
	}
	const iid = 40
	s0 := stockRow(t, c.Shard(1).DB, 0, iid)

	killed := 0
	c.SetKillHook(func(p KillPoint, gid uint64) {
		switch {
		case p == fault.KillAfterPrepare && killed == 0:
			killed = 1
			c.KillShard(1)
		case p == fault.KillDuringResolve && killed == 1:
			killed = 2
			c.KillShard(1)
		}
	})
	if _, err := c.ExecNewOrder(db.NewOrderInput{W: 0, D: 0, C: 0,
		Items: []db.OrderItem{{IID: iid, SupplyW: 1, Qty: 3}}}); err != nil {
		t.Fatalf("exec: %v, want acknowledged commit", err)
	}
	recoverAll(t, c, rng.New(123))
	c.SetKillHook(nil)
	if killed != 2 {
		t.Fatalf("kill sequence stopped at %d, want both windows hit", killed)
	}
	if n := len(c.Shard(1).DB.InDoubt()); n != 0 {
		t.Fatalf("%d branches still in doubt", n)
	}
	if got := stockRow(t, c.Shard(1).DB, 0, iid); got.YTD != s0.YTD+3 {
		t.Fatalf("acked update lost across resolve-window kill: YTD %d, want %d", got.YTD, s0.YTD+3)
	}
	checkAtomicity(t, c, base)
	if err := c.CheckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestGracefulDegradation holds one shard down: remote work needing it
// is refused with typed errors and counted, local work keeps committing.
func TestGracefulDegradation(t *testing.T) {
	c := openCluster(t, 3)
	c.KillShard(2)

	// Remote line supplied by the dead shard: typed refusal at the
	// coordinator, counted as a shed.
	_, err := c.ExecNewOrder(db.NewOrderInput{W: 0, D: 0, C: 0,
		Items: []db.OrderItem{{IID: 1, SupplyW: 2, Qty: 1}}})
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead participant: err = %v, want ErrShardDown", err)
	}
	// Home on the dead shard itself.
	_, err = c.ExecNewOrder(db.NewOrderInput{W: 2, D: 0, C: 0,
		Items: []db.OrderItem{{IID: 1, SupplyW: 2, Qty: 1}}})
	if !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead home: err = %v, want ErrShardDown", err)
	}
	// Remote customer on the dead shard.
	if err := c.ExecPayment(db.PaymentInput{W: 0, D: 0, CW: 2, CD: 0, C: 0,
		AmountCents: 100}); !errors.Is(err, ErrShardDown) {
		t.Fatalf("dead customer shard: err = %v, want ErrShardDown", err)
	}
	// Local traffic on the survivors still commits.
	if _, err := c.ExecNewOrder(db.NewOrderInput{W: 0, D: 1, C: 1,
		Items: []db.OrderItem{{IID: 2, SupplyW: 0, Qty: 1}}}); err != nil {
		t.Fatalf("local commit on survivor: %v", err)
	}
	st0, st2 := c.Shard(0).Stats(), c.Shard(2).Stats()
	if st0.Sheds != 2 { // dead participant + dead customer shard
		t.Fatalf("coordinator sheds = %d, want 2", st0.Sheds)
	}
	if st2.DownSheds != 1 {
		t.Fatalf("dead shard downSheds = %d, want 1", st2.DownSheds)
	}
	if st0.LocalCommits != 1 {
		t.Fatalf("survivor local commits = %d, want 1", st0.LocalCommits)
	}

	// Revive and verify the cluster is whole.
	if err := c.RecoverShard(2, rng.New(7)); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCleanCluster drives the concurrent runner with elevated remote
// probabilities on a healthy cluster: everything must be acknowledged.
func TestRunCleanCluster(t *testing.T) {
	c := openCluster(t, 3)
	base, err := measureCluster(c)
	if err != nil {
		t.Fatal(err)
	}
	const total = 300
	st, err := Run(c, 42, tpcc.DefaultMix(), total, 4, db.DefaultRetryPolicy(), 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Quiesce(0); n > 0 {
		t.Fatalf("%d participant commits pending on a healthy cluster", n)
	}
	if got := st.Acknowledged(); got != total {
		t.Fatalf("acknowledged %d of %d (sheds=%d)", got, total, st.Sheds)
	}
	if st.Sheds != 0 {
		t.Fatalf("sheds = %d on a healthy cluster", st.Sheds)
	}
	if m := c.Xval(); m.NewOrders > 20 && m.ERs == 0 {
		t.Fatal("no remote stock lines measured at 25% remote probability")
	}
	checkAtomicity(t, c, base)
	if err := c.CheckAll(); err != nil {
		t.Fatal(err)
	}
}

// TestRunCleanClusterMVCC reruns the healthy-cluster workload with every
// shard in snapshot-isolation mode and again in serializable-SI mode:
// cross-shard 2PC branches prepare and commit over mvcc-local
// transactions — under ssi the Prepare carries each shard's
// serializability validation — and the cluster must come out atomic and
// consistent exactly as under 2PL.
func TestRunCleanClusterMVCC(t *testing.T) {
	for _, cc := range []db.CCMode{db.CCMVCC, db.CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			cfg := DefaultConfig(3)
			cfg.CC = cc
			c, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			base, err := measureCluster(c)
			if err != nil {
				t.Fatal(err)
			}
			const total = 300
			st, err := Run(c, 42, tpcc.DefaultMix(), total, 4, db.DefaultRetryPolicy(), 0.25, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			if n := c.Quiesce(0); n > 0 {
				t.Fatalf("%d participant commits pending on a healthy cluster", n)
			}
			if got := st.Acknowledged(); got != total {
				t.Fatalf("acknowledged %d of %d (sheds=%d)", got, total, st.Sheds)
			}
			checkAtomicity(t, c, base)
			if err := c.CheckAll(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardTortureReduced runs a scaled-down campaign (the CI smoke
// configuration drives the full default via make shard-torture).
func TestShardTortureReduced(t *testing.T) {
	// Both commit modes: one force per committer, and forces shared. Local
	// transactions release their locks before the force in either; 2PC
	// votes and decisions stay force-then-release.
	for name, group := range map[string]wal.GroupConfig{"per-commit": {}, "grouped": {MaxBatch: 64}} {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultTortureConfig()
			cfg.Seeds = 1
			cfg.Schedules = 4
			cfg.Txns = 150
			cfg.GroupCommit = group
			if testing.Short() {
				cfg.Schedules = 2
				cfg.Txns = 80
			}
			rep, err := Torture(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.OK() {
				t.Fatalf("torture violations:\n%v", rep.Violations)
			}
			t.Log(rep.Summary())
		})
	}
}

// recount is the Appendix A derivation the deleted shard runner made from
// the inputs it generated — a second ShardOf pass over every order line, a
// set of remote sites per order — kept here as the oracle for the counters
// the router now records from its own item split. groups holds the size of
// every last-name group, which is what a by-name select touches.
type recount struct {
	terminal
	x      *XvalCounters
	groups map[[4]int64]int64 // (shard, local warehouse, district, name ordinal)
}

func (r recount) NewOrder(in db.NewOrderInput) (db.NewOrderResult, error) {
	home := r.ShardOf(in.W)
	var remoteLines int64
	sites := make(map[int]struct{})
	for _, it := range in.Items {
		if s := r.ShardOf(it.SupplyW); s != home {
			remoteLines++
			sites[s] = struct{}{}
		}
	}
	res, err := r.ExecNewOrder(in)
	if err == nil {
		r.x.NewOrders.Add(1)
		r.x.RemoteLines.Add(remoteLines)
		r.x.RemoteSites.Add(int64(len(sites)))
		if remoteLines == 0 {
			r.x.AllLocal.Add(1)
		}
	}
	return res, err
}

func (r recount) Payment(in db.PaymentInput) error {
	err := r.ExecPayment(in)
	if err == nil {
		r.x.Payments.Add(1)
		if cs := r.ShardOf(in.CW); cs != r.ShardOf(in.W) {
			selected := int64(1)
			if in.ByName {
				selected = r.groups[[4]int64{int64(cs), r.LocalW(in.CW), in.CD, in.NameOrd}]
			}
			r.x.RemotePayments.Add(1)
			r.x.RemoteCustCalls.Add(selected + 1)
		}
	}
	return err
}

// TestClusterRunStats: a cluster run goes through the engine's one
// terminal and its fan-out, so it reports what a single-instance run
// reports — per-type acked, aborts and latency quantiles — and every
// acknowledgement is one the router counted on some shard. The Appendix A
// counters the router keeps equal a recount from the generated inputs.
func TestClusterRunStats(t *testing.T) {
	c := openCluster(t, 3)
	oracle := recount{terminal: terminal{c}, x: new(XvalCounters), groups: make(map[[4]int64]int64)}
	for _, s := range c.Shards() {
		err := s.DB.Heap(core.Customer).Scan(func(_ storage.RID, b []byte) bool {
			var r db.CustomerRec
			r.Unmarshal(b[:tpcc.TupleLen[core.Customer]])
			oracle.groups[[4]int64{int64(s.ID), int64(r.WID), int64(r.DID), int64(r.NameOrd)}]++
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	const total = 600
	st, err := run(oracle, 7, tpcc.DefaultMix(), total, 4, db.DefaultRetryPolicy(), 0.25, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if n := c.Quiesce(0); n > 0 {
		t.Fatalf("%d participant commits pending on a healthy cluster", n)
	}

	if got := st.Acknowledged(); got != total || st.Sheds != 0 {
		t.Fatalf("acknowledged %d of %d, %d sheds on a healthy cluster", got, total, st.Sheds)
	}
	routed := statsTotal(c, func(s Stats) int64 { return s.LocalCommits + s.DistCommits })
	if routed != st.Acknowledged() {
		t.Fatalf("terminal acknowledged %d, shards count %d local + coordinated commits", st.Acknowledged(), routed)
	}
	var aborts int64
	for typ, ts := range st.PerType {
		if ts.Acked != st.Counts[typ] || ts.Acked == 0 {
			t.Fatalf("%s: per-type acked %d, counts %d, want equal and > 0", core.TxnType(typ), ts.Acked, st.Counts[typ])
		}
		if ts.P50 <= 0 || ts.P50 > ts.P95 || ts.P95 > ts.P99 {
			t.Fatalf("%s: latency quantiles p50 %v p95 %v p99 %v", core.TxnType(typ), ts.P50, ts.P95, ts.P99)
		}
		aborts += ts.Aborts
	}
	// With nothing shed, every failed attempt was retried.
	if aborts != st.Retries {
		t.Fatalf("per-type aborts sum to %d, retries %d", aborts, st.Retries)
	}
	if st.Latency.N != total || st.TpmC() <= 0 {
		t.Fatalf("latency over %d transactions, tpmC %.0f", st.Latency.N, st.TpmC())
	}

	got, want := c.Xval(), oracle.x.Measured()
	if got != want {
		t.Fatalf("Appendix A at the router:\n got %+v\nwant %+v (recount from the inputs)", got, want)
	}
	if got.ERs == 0 || got.UCust == 0 || got.RCCust <= 2*got.UCust {
		t.Fatalf("no cross-shard traffic measured at 25%%/50%% remote probability: %+v", got)
	}
}

// TestClusterBackoffSheds: a transaction that aborts on every attempt —
// here a New-Order behind a warehouse row that is never released, so each
// attempt is a lock wait timeout — backs off under the terminal's policy
// and is shed when its attempts run out, however many there are. The
// cluster's own copy of the backoff computed BaseDelay << (attempt-1): at
// the default 50 µs that is negative from attempt 49, skipped the MaxDelay
// cap and panicked drawing the jitter.
func TestClusterBackoffSheds(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.LockWaitTimeout = time.Millisecond
	c, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate, err := c.Shard(0).DB.PaymentHomeBegin(c.nextGID(0), db.PaymentInput{AmountCents: 1}, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := db.NewOrderInput{W: 0, D: 0, C: 0, Items: []db.OrderItem{{IID: 3, SupplyW: 0, Qty: 1}}}
	rn := db.NewRunnerOn(scripted{terminal{c}, in}, 1, allNewOrder)
	rn.Policy.MaxAttempts = 64
	rn.Policy.MaxDelay = time.Millisecond
	if _, err := rn.RunOne(); err != nil {
		t.Fatal(err)
	}
	if rn.Sheds() != 1 || rn.Retries() != 63 || rn.Aborts()[core.TxnNewOrder] != 64 {
		t.Fatalf("sheds %d retries %d aborts %d, want 1, 63 and 64",
			rn.Sheds(), rn.Retries(), rn.Aborts()[core.TxnNewOrder])
	}
	if err := gate.Abort(); err != nil {
		t.Fatal(err)
	}
	if _, err := rn.RunOne(); err != nil || rn.Counts()[core.TxnNewOrder] != 1 {
		t.Fatalf("after the row is released: err %v, acked %d", err, rn.Counts()[core.TxnNewOrder])
	}
}
