package fault

import (
	"sync/atomic"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// commitModes are the two settings of the commit path: one force per
// committer, and forces shared by whoever pre-committed in time.
var commitModes = map[string]wal.GroupConfig{
	"per-commit": {},
	"grouped":    {MaxBatch: 64},
}

// killAtForce delegates to the injector but kills the device at the Nth
// log force — i.e. after the transactions it would have covered
// pre-committed, published their writes and released their locks, but
// before their records became durable. That is the window early lock
// release opens: every one of them gets an error instead of an
// acknowledgment, none of them is undone, and recovery decides.
type killAtForce struct {
	inj    *Injector
	target int64
	n      atomic.Int64
}

func (h *killAtForce) BeforeForce(n int) error {
	if h.n.Add(1) == h.target {
		h.inj.Kill()
	}
	return h.inj.BeforeForce(n)
}

// TestKillBetweenPreCommitAndForce crashes the log device on a mid-run
// force, applies power loss, recovers, and asserts no acknowledged
// transaction was lost, no invariant broke, and the transactions that were
// pre-committed but never acknowledged show up as at most one phantom per
// worker.
func TestKillBetweenPreCommitAndForce(t *testing.T) {
	for name, group := range commitModes {
		t.Run(name, func(t *testing.T) {
			const workers = 4
			seedRng := rng.New(99)
			disk := storage.NewMemDisk()
			inj := New(disk, seedRng.Uint64())
			hook := &killAtForce{inj: inj, target: 40}
			d, err := db.OpenWith(db.Config{
				Warehouses: 1, PageSize: 1024, BufferPages: 256,
			}, db.Options{Disk: inj, LogHook: hook, GroupCommit: group})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Load(99); err != nil {
				t.Fatal(err)
			}
			if err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			base := measure(d)

			st, runErr := db.RunConcurrentPolicy(d, seedRng.Uint64(), tpcc.DefaultMix(),
				2000, workers, db.DefaultRetryPolicy())
			if runErr != nil {
				t.Fatalf("run failed fatally (crash should surface via RunStats): %v", runErr)
			}
			if !st.Crashed {
				t.Fatalf("force #%d never fired a crash (only %d forces issued)",
					hook.target, hook.n.Load())
			}

			if err := d.CrashPowerLoss(seedRng); err != nil {
				t.Fatal(err)
			}
			inj.Revive()
			if err := d.Recover(); err != nil {
				t.Fatal(err)
			}
			if err := d.CheckConsistency(); err != nil {
				t.Errorf("consistency after the crash: %v", err)
			}
			live := measure(d)
			ackedNO := st.Counts[core.TxnNewOrder]
			slack := int64(workers)
			if lo := base.orders + ackedNO; live.orders < lo {
				t.Errorf("lost acknowledged new-orders: %d live, want >= %d (base %d + acked %d)",
					live.orders, lo, base.orders, ackedNO)
			} else if hi := lo + slack; live.orders > hi {
				t.Errorf("phantom orders: %d live, want <= %d", live.orders, hi)
			}
			if lo := base.history + st.Counts[core.TxnPayment]; live.history < lo {
				t.Errorf("lost acknowledged payments: %d history rows, want >= %d", live.history, lo)
			} else if hi := lo + slack; live.history > hi {
				t.Errorf("phantom history rows: %d live, want <= %d", live.history, hi)
			}
			t.Logf("acked %d txns before the kill at force #%d; %dB log tail truncated",
				st.Acknowledged(), hook.target, d.RecoveryStats().TruncatedBytes)
		})
	}
}

// TestTransientForceErrorsAreInvisible fails one log force in five with a
// transient error and nothing else. The waiter retries the force in place,
// so the single worker (no deadlocks to muddy the count) sees no abort, no
// retry and no shed, and every acknowledged New-Order and Payment left
// exactly one order and one history row: a commit is never run twice.
func TestTransientForceErrorsAreInvisible(t *testing.T) {
	for name, group := range commitModes {
		t.Run(name, func(t *testing.T) {
			inj := New(storage.NewMemDisk(), 5)
			inj.SetConfig(Config{ForceErrProb: 0.2})
			d, err := db.OpenWith(db.Config{Warehouses: 1, PageSize: 4096, BufferPages: 1 << 15},
				db.Options{Disk: inj, LogHook: inj, GroupCommit: group})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Load(5); err != nil {
				t.Fatal(err)
			}
			base := measure(d)
			inj.SetEnabled(true)
			st, err := db.RunConcurrentPolicy(d, 6, tpcc.DefaultMix(), 1500, 1, db.DefaultRetryPolicy())
			if err != nil {
				t.Fatal(err)
			}
			inj.SetEnabled(false)
			if errs := inj.Stats().ForceErrs; errs < 100 {
				t.Fatalf("only %d force errors injected", errs)
			}
			if st.Retries != 0 || st.Sheds != 0 || st.Acknowledged() != 1500 {
				t.Errorf("retries %d sheds %d acked %d: force errors reached the runner", st.Retries, st.Sheds, st.Acknowledged())
			}
			if st.Aborts != 0 {
				t.Errorf("%d engine rollbacks", st.Aborts)
			}
			live := measure(d)
			if want := base.orders + st.Counts[core.TxnNewOrder]; live.orders != want {
				t.Errorf("%d orders, want %d", live.orders, want)
			}
			if want := base.history + st.Counts[core.TxnPayment]; live.history != want {
				t.Errorf("%d history rows, want %d", live.history, want)
			}
			if err := d.CheckConsistency(); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestTortureBothCommitModes runs a reduced crash-torture campaign in each
// commit mode: randomly timed crashes land between pre-commit and force as
// well as on page I/O, and every schedule's durability, consistency, and
// checksum invariants — the phantom slack of one per worker included — must
// hold in both.
func TestTortureBothCommitModes(t *testing.T) {
	if testing.Short() {
		t.Skip("torture campaign in -short mode")
	}
	for name, group := range commitModes {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultTortureConfig()
			cfg.Seeds = 2
			cfg.Schedules = 4
			cfg.Txns = 150
			cfg.Workers = 4
			cfg.GroupCommit = group
			rep, err := Torture(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Error(v)
			}
			if len(rep.Schedules) != cfg.Seeds*cfg.Schedules {
				t.Fatalf("ran %d schedules, want %d", len(rep.Schedules), cfg.Seeds*cfg.Schedules)
			}
			t.Log(rep.Summary())
		})
	}
}
