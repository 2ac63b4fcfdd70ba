package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/fault"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// TortureConfig sizes a multi-shard crash campaign: for each of Seeds
// independent clusters, Schedules kill schedules run — concurrent
// globally-routed TPC-C load with a shard kill armed at a drawn 2PC
// protocol point, then a cluster-wide power loss, recovery, in-doubt
// resolution, and verification — plus one graceful-degradation phase
// with a shard held down under live traffic. The load is the default mix
// under the default retry policy.
type TortureConfig struct {
	BaseSeed  uint64
	Seeds     int
	Schedules int
	// Txns is attempted transactions per schedule, Workers the worker
	// goroutines.
	Txns    int
	Workers int

	// Shards and WarehousesPerShard shape the cluster.
	Shards             int
	WarehousesPerShard int
	PageSize           int
	BufferPages        int

	// RemoteStockProb / RemotePaymentProb are elevated above the
	// benchmark's 1%/15% so every schedule drives real cross-shard
	// traffic through the protocol windows.
	RemoteStockProb   float64
	RemotePaymentProb float64

	// Faults sets steady-state transient-fault probabilities on every
	// shard device during the load phases.
	Faults fault.Config
	// GroupCommit configures per-shard WAL batching for the campaign.
	GroupCommit wal.GroupConfig
	// CC selects each shard's concurrency-control mode (zero = 2PL).
	CC db.CCMode
	// Degraded enables the held-down-shard phase per seed.
	Degraded bool
}

// DefaultTortureConfig returns a complete small campaign: 3 seeds x 6
// schedules over a 3-shard cluster, 18 distinct protocol-point kills
// plus 3 degradation phases.
func DefaultTortureConfig() TortureConfig {
	return TortureConfig{
		BaseSeed:           1,
		Seeds:              3,
		Schedules:          6,
		Txns:               300,
		Workers:            4,
		Shards:             3,
		WarehousesPerShard: 1,
		PageSize:           1024,
		BufferPages:        256,
		RemoteStockProb:    0.25,
		RemotePaymentProb:  0.50,
		Faults: fault.Config{
			ReadErrProb:  0.0005,
			WriteErrProb: 0.0005,
			ForceErrProb: 0.0005,
		},
		Degraded: true,
	}
}

// ScheduleResult records one kill schedule's outcome.
type ScheduleResult struct {
	Seed     uint64
	Schedule int
	// Plan is the armed kill; Fired reports whether its point was
	// reached during the schedule.
	Plan  fault.ShardKillPlan
	Fired bool
	// Acked / Retries / Sheds aggregate the workers' counters.
	Acked, Retries, Sheds int64
	// InDoubt counts branches surfaced in doubt during recovery;
	// ResolvedCommit/ResolvedAbort their resolutions.
	InDoubt, ResolvedCommit, ResolvedAbort int64
	// Violations lists broken invariants (empty = pass).
	Violations []string
}

// Report aggregates a campaign.
type Report struct {
	Config    TortureConfig
	Schedules []ScheduleResult
	// Violations flattens every schedule violation with provenance.
	Violations []string
	// FiredKills counts schedules whose armed kill actually fired.
	FiredKills int
	// InDoubt / ResolvedCommit / ResolvedAbort total the in-doubt
	// branches the campaign created and settled.
	InDoubt, ResolvedCommit, ResolvedAbort int64
	// DegradedLocalAcks / DegradedSheds total the degradation phases'
	// surviving-shard commits and typed refusals.
	DegradedLocalAcks, DegradedSheds int64
}

// OK reports whether the campaign found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Summary renders a one-paragraph outcome.
func (r *Report) Summary() string {
	var acked, retries, sheds int64
	for _, s := range r.Schedules {
		acked += s.Acked
		retries += s.Retries
		sheds += s.Sheds
	}
	return fmt.Sprintf(
		"shard-torture: %d seeds x %d schedules on %d shards (%d kills fired), "+
			"%d acked txns, %d retries, %d sheds; in-doubt: %d surfaced, "+
			"%d resolved commit, %d resolved abort; degraded: %d local acks, "+
			"%d typed sheds; violations: %d",
		r.Config.Seeds, r.Config.Schedules, r.Config.Shards, r.FiredKills,
		acked, retries, sheds, r.InDoubt, r.ResolvedCommit, r.ResolvedAbort,
		r.DegradedLocalAcks, r.DegradedSheds, len(r.Violations))
}

// clusterBaseline holds cluster-wide durable totals a schedule starts
// from.
type clusterBaseline struct {
	orders, stockYTD, olQty uint64
}

func measureCluster(c *Cluster) (clusterBaseline, error) {
	var b clusterBaseline
	for _, s := range c.shards {
		b.orders += uint64(s.DB.Heap(core.Order).Live())
	}
	var err error
	if b.stockYTD, err = c.StockYTDTotal(); err != nil {
		return b, err
	}
	if b.olQty, err = c.OrderLineQtyTotal(); err != nil {
		return b, err
	}
	return b, nil
}

// statsTotal sums a counter across shards.
func statsTotal(c *Cluster, f func(Stats) int64) int64 {
	var n int64
	for _, s := range c.shards {
		n += f(s.Stats())
	}
	return n
}

// Torture runs the campaign. Errors are setup failures only; invariant
// violations land in the Report.
func Torture(cfg TortureConfig) (*Report, error) {
	if cfg.Seeds < 1 || cfg.Schedules < 1 {
		return nil, fmt.Errorf("shard: need at least one seed and one schedule")
	}
	rep := &Report{Config: cfg}
	for s := 0; s < cfg.Seeds; s++ {
		seed := cfg.BaseSeed + uint64(s)
		if err := tortureSeed(cfg, seed, rep); err != nil {
			return rep, fmt.Errorf("shard: seed %d: %w", seed, err)
		}
	}
	return rep, nil
}

func tortureSeed(cfg TortureConfig, seed uint64, rep *Report) error {
	seedRng := rng.New(seed)
	c, err := Open(Config{
		Shards:             cfg.Shards,
		WarehousesPerShard: cfg.WarehousesPerShard,
		PageSize:           cfg.PageSize,
		BufferPages:        cfg.BufferPages,
		Seed:               seed,
		LockWaitTimeout:    20 * time.Millisecond,
		GroupCommit:        cfg.GroupCommit,
		Faults:             cfg.Faults,
		CC:                 cfg.CC,
	})
	if err != nil {
		return err
	}
	base, err := measureCluster(c)
	if err != nil {
		return err
	}

	for sched := 0; sched < cfg.Schedules; sched++ {
		res := ScheduleResult{Seed: seed, Schedule: sched}
		violate := func(format string, args ...any) {
			v := fmt.Sprintf(format, args...)
			res.Violations = append(res.Violations, v)
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("seed=%d schedule=%d: %s", seed, sched, v))
		}

		// Arm one kill at a drawn protocol point; it fires at most once.
		plan := fault.NewShardKillPlan(seedRng, cfg.Shards)
		res.Plan = plan
		var fired atomic.Bool
		c.SetKillHook(func(p KillPoint, gid uint64) {
			if p != plan.Point {
				return
			}
			victim := plan.Victim
			if plan.CoordinatorVictim {
				victim = CoordinatorOf(gid)
			}
			if fired.CompareAndSwap(false, true) {
				c.KillShard(victim)
			}
		})
		inDoubt0 := statsTotal(c, func(s Stats) int64 { return s.InDoubt })
		rc0 := statsTotal(c, func(s Stats) int64 { return s.ResolvedCommit })
		ra0 := statsTotal(c, func(s Stats) int64 { return s.ResolvedAbort })

		for _, s := range c.shards {
			s.Inj.SetEnabled(true)
		}
		st, runErr := Run(c, rng.Substream(seed, uint64(sched)+1000), tpcc.DefaultMix(),
			cfg.Txns, cfg.Workers, db.DefaultRetryPolicy(), cfg.RemoteStockProb, cfg.RemotePaymentProb)
		for _, s := range c.shards {
			s.Inj.SetEnabled(false)
		}
		if runErr != nil {
			violate("run failed fatally: %v", runErr)
		}
		res.Acked = st.Acknowledged()
		res.Retries = st.Retries
		res.Sheds = st.Sheds
		ackedNO := st.Counts[core.TxnNewOrder]

		// Settle parked participant commits before tearing down.
		if n := c.Quiesce(time.Second); n > 0 {
			violate("%d participant commits still pending after quiesce", n)
		}

		// Cluster-wide power loss: every shard dies, then recovers. The
		// KillDuringResolve hook stays armed through the recovery loop,
		// so resolution-window kills also get exercised; multiple rounds
		// re-recover shards the hook (or an unreachable coordinator)
		// took back down.
		for id := range c.shards {
			c.KillShard(id)
		}
		recovered := false
		for round := 0; round < 2+int(fault.NumShardKillPoints); round++ {
			ok := true
			for id, s := range c.shards {
				if !s.Down() {
					continue
				}
				if err := c.RecoverShard(id, seedRng); err != nil {
					ok = false
				}
			}
			if err := c.ResolveInDoubtAll(); err != nil {
				ok = false
			}
			if ok {
				recovered = true
				break
			}
		}
		c.SetKillHook(nil)
		if !recovered {
			violate("cluster failed to fully recover within the round budget")
		}
		if fired.Load() {
			res.Fired = true
			rep.FiredKills++
		}

		// Invariant: no orphaned in-doubt branch anywhere.
		for _, s := range c.shards {
			if n := len(s.DB.InDoubt()); n > 0 {
				violate("shard %d: %d orphaned in-doubt branches", s.ID, n)
			}
		}
		// Invariant: page integrity and TPC-C consistency on every shard.
		for _, s := range c.shards {
			vr, err := s.DB.VerifyPages()
			if err != nil {
				violate("shard %d: page verification failed: %v", s.ID, err)
			} else if len(vr.Corrupt) > 0 {
				violate("shard %d: unrecoverable pages: %v", s.ID, vr.Corrupt)
			}
		}
		if err := c.CheckAll(); err != nil {
			violate("consistency: %v", err)
		}
		// Invariant: no lost acknowledged commit. Acked New-Orders are a
		// floor on durable orders; in-flight unacked transactions whose
		// commit record survived by luck give at most Workers of slack.
		live, err := measureCluster(c)
		if err != nil {
			return err
		}
		slack := uint64(cfg.Workers)
		if lo := base.orders + uint64(ackedNO); live.orders < lo {
			violate("lost acknowledged new-orders: %d live, want >= %d (base %d + acked %d)",
				live.orders, lo, base.orders, ackedNO)
		} else if hi := lo + slack; live.orders > hi {
			violate("phantom orders: %d live, want <= %d", live.orders, hi)
		}
		// Invariant: exact cross-shard atomicity. Every order line's
		// quantity lands in exactly one stock row's YTD atomically, so
		// the cluster-wide deltas match exactly — a half-applied
		// distributed New-Order breaks the equality.
		dStock := live.stockYTD - base.stockYTD
		dOL := live.olQty - base.olQty
		if dStock != dOL {
			violate("cross-shard atomicity broken: stock YTD grew %d, order-line qty grew %d",
				dStock, dOL)
		}
		base = live

		res.InDoubt = statsTotal(c, func(s Stats) int64 { return s.InDoubt }) - inDoubt0
		res.ResolvedCommit = statsTotal(c, func(s Stats) int64 { return s.ResolvedCommit }) - rc0
		res.ResolvedAbort = statsTotal(c, func(s Stats) int64 { return s.ResolvedAbort }) - ra0
		rep.InDoubt += res.InDoubt
		rep.ResolvedCommit += res.ResolvedCommit
		rep.ResolvedAbort += res.ResolvedAbort
		rep.Schedules = append(rep.Schedules, res)
	}

	if cfg.Degraded && cfg.Shards > 1 {
		if err := degradedPhase(cfg, seed, c, rep, &base); err != nil {
			return err
		}
	}
	return nil
}

// degradedPhase holds one shard down under live traffic and asserts
// graceful degradation: surviving shards keep committing local work,
// transactions needing the dead shard are refused with typed errors, and
// the per-shard counters account for the refusals.
func degradedPhase(cfg TortureConfig, seed uint64, c *Cluster, rep *Report, base *clusterBaseline) error {
	seedRng := rng.New(seed ^ 0xdeadbeef)
	victim := int(seedRng.Int63n(int64(cfg.Shards)))
	violate := func(format string, args ...any) {
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("seed=%d degraded: %s", seed, fmt.Sprintf(format, args...)))
	}

	local0 := statsTotal(c, func(s Stats) int64 { return s.LocalCommits })
	shed0 := statsTotal(c, func(s Stats) int64 { return s.Sheds + s.DownSheds })

	c.KillShard(victim)
	st, runErr := Run(c, rng.Substream(seed, 9999), tpcc.DefaultMix(),
		cfg.Txns, cfg.Workers, db.DefaultRetryPolicy(), cfg.RemoteStockProb, cfg.RemotePaymentProb)
	if runErr != nil {
		violate("degraded run failed fatally: %v", runErr)
	}
	if n := c.Quiesce(time.Second); n > 0 {
		violate("%d participant commits pending after degraded run", n)
	}

	localAcks := statsTotal(c, func(s Stats) int64 { return s.LocalCommits }) - local0
	shardSheds := statsTotal(c, func(s Stats) int64 { return s.Sheds + s.DownSheds }) - shed0
	if localAcks == 0 {
		violate("no local commits on surviving shards while shard %d was down", victim)
	}
	if shardSheds == 0 {
		violate("no typed sheds recorded while shard %d was down", victim)
	}
	if st.Sheds < shardSheds {
		violate("shed accounting: runner shed %d < shard-counter sheds %d",
			st.Sheds, shardSheds)
	}
	rep.DegradedLocalAcks += localAcks
	rep.DegradedSheds += shardSheds

	// Bring the victim back and verify the cluster is whole again.
	if err := c.RecoverShard(victim, seedRng); err != nil {
		violate("recovering held-down shard: %v", err)
	}
	if err := c.ResolveInDoubtAll(); err != nil {
		violate("resolving after degraded phase: %v", err)
	}
	if err := c.CheckAll(); err != nil {
		violate("consistency after degraded phase: %v", err)
	}
	live, err := measureCluster(c)
	if err != nil {
		return err
	}
	if d1, d2 := live.stockYTD-base.stockYTD, live.olQty-base.olQty; d1 != d2 {
		violate("cross-shard atomicity broken in degraded phase: stock +%d vs order-line +%d", d1, d2)
	}
	*base = live
	return nil
}
