package shard

import (
	"fmt"
	"sync/atomic"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/fault"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// TortureConfig sizes a crash campaign over a cluster of Shards nodes; one
// shard is a single node. For each of Seeds independent clusters,
// Schedules schedules run: concurrent globally-routed TPC-C load under
// steady-state device faults, with a device crash fuse armed on a drawn
// shard and a shard kill armed at a drawn 2PC protocol point, then a
// cluster-wide power loss, recovery, in-doubt resolution, verification and
// a directed bit-flip probe. A cluster of more than one shard then runs
// one graceful-degradation phase per seed, a shard held down under live
// traffic.
type TortureConfig struct {
	// Seeds independent clusters, Schedules schedules each, Txns
	// transactions attempted per schedule.
	Seeds, Schedules, Txns int
	// Shards is the cluster size N (1 = a single node).
	Shards int
	// CC is every shard's concurrency-control mode (zero = 2PL).
	CC db.CCMode
	// GroupCommit configures every shard's WAL batching (zero = one
	// force per commit).
	GroupCommit wal.GroupConfig
}

// The campaign's fixed shape: one warehouse per shard on 1 KiB pages
// behind a 256-page pool, so schedules evict and write back; four
// workers, each with at most one transaction in flight at a crash; and
// remote probabilities raised above the benchmark's 1 %/15 % so every
// multi-shard schedule drives traffic through the protocol windows.
const (
	tortureWorkers     = 4
	torturePageSize    = 1024
	tortureBufferPages = 256
	tortureRemoteStock = 0.25
	tortureRemotePay   = 0.50
)

// tortureFaults are the steady-state fault rates on every shard's device
// during each schedule's load.
var tortureFaults = fault.Config{
	ReadErrProb:  0.002,
	WriteErrProb: 0.002,
	ForceErrProb: 0.002,
	BitFlipProb:  0.001,
}

// DefaultTortureConfig returns the campaign's CI size on the given number
// of shards: 3 seeds x 6 schedules x 400 transactions with group commit
// on a single node, 2 x 4 x 200 with one force per commit on a cluster.
func DefaultTortureConfig(shards int) TortureConfig {
	if shards == 1 {
		return TortureConfig{Seeds: 3, Schedules: 6, Txns: 400, Shards: 1,
			GroupCommit: wal.GroupConfig{MaxBatch: 64}}
	}
	return TortureConfig{Seeds: 2, Schedules: 4, Txns: 200, Shards: shards}
}

// KillPlan is one armed 2PC kill: when Point fires, the Victim shard dies —
// for the first gid to reach it that has a participant branch (open, or in
// doubt) on Victim, or, for a CoordinatorVictim plan, for the first gid to
// reach it, whose coordinator dies. A plan fires at most once, and never on
// one shard, where no transaction runs the protocol.
type KillPlan struct {
	Point  KillPoint
	Victim int
	// CoordinatorVictim marks plans whose victim is the transaction's
	// own coordinator rather than a participant; the hook substitutes
	// the coordinator shard at fire time.
	CoordinatorVictim bool
}

// NewKillPlan draws a plan from r for a cluster of n shards: a uniform
// kill point, a uniform victim, and a coin for whether the victim should
// be the coordinator itself (the most delicate crash: its forced commit
// record is the global decision), except at during-resolve: the
// coordinator has answered by then, and one killed after prepare aborts its
// participants, leaving nothing in doubt.
func NewKillPlan(r *rng.RNG, n int) KillPlan {
	p := KillPoint(r.Int63n(int64(NumKillPoints)))
	v := int(r.Int63n(int64(n)))
	return KillPlan{Point: p, Victim: v, CoordinatorVictim: r.Bernoulli(0.5) && p != KillDuringResolve}
}

// ScheduleResult records one schedule's outcome.
type ScheduleResult struct {
	Seed     uint64
	Schedule int
	// MidRunCrash reports that the device crash fuse fired during the
	// load (vs. the quiescent power loss every schedule ends with).
	MidRunCrash bool
	// Plan is the armed 2PC kill; Fired reports whether its point was
	// reached during the schedule.
	Plan  KillPlan
	Fired bool
	// Acked / Retries / Sheds aggregate the workers' counters.
	Acked, Retries, Sheds int64
	// InDoubt counts branches surfaced in doubt during recovery;
	// ResolvedCommit/ResolvedAbort their resolutions.
	InDoubt, ResolvedCommit, ResolvedAbort int64
	// Recovery sums what each shard's last recovery read (Records,
	// Bytes), applied (Applied) and discarded (TruncatedBytes).
	Recovery wal.RecoverStats
	// Violations lists broken invariants (empty = pass).
	Violations []string
}

// Report aggregates a campaign.
type Report struct {
	Config    TortureConfig
	Schedules []ScheduleResult
	// Violations flattens every violation with its provenance.
	Violations []string
	// MidRunCrashes counts schedules whose crash fuse fired under load;
	// KillsDrawn and KillsFired, per kill point, those that armed a kill
	// there and those whose kill fired.
	MidRunCrashes          int
	KillsDrawn, KillsFired [NumKillPoints]int
	// InDoubt / ResolvedCommit / ResolvedAbort total the in-doubt
	// branches the campaign created and settled.
	InDoubt, ResolvedCommit, ResolvedAbort int64
	// Faults totals every shard's injector; Detected / Repaired its page
	// stores' checksum detections and repairs.
	Faults             fault.Stats
	Detected, Repaired int64
	// Probes counts directed bit-flip probes; every one must be
	// detected and repaired for the campaign to pass.
	Probes int
	// DegradedLocalAcks / DegradedSheds total the degradation phases'
	// surviving-shard commits and typed refusals.
	DegradedLocalAcks, DegradedSheds int64
}

// OK reports whether the campaign found no violations.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Summary renders a one-paragraph outcome.
func (r *Report) Summary() string {
	var acked, retries, sheds, trunc int64
	for _, s := range r.Schedules {
		acked += s.Acked
		retries += s.Retries
		sheds += s.Sheds
		trunc += s.Recovery.TruncatedBytes
	}
	kills := ""
	for p := range NumKillPoints {
		kills += fmt.Sprintf(", %s %d/%d", p, r.KillsFired[p], r.KillsDrawn[p])
	}
	f := r.Faults
	return fmt.Sprintf(
		"torture: cc=%s, %d seeds x %d schedules on %d shards (%d mid-run crashes; kills fired/drawn%s), "+
			"%d acked txns, %d retries, %d sheds; faults: %d read, %d write, %d force errs, "+
			"%d bit flips, %d torn, %d dropped writes; %d log bytes truncated; "+
			"checksums: %d detected, %d repaired (%d directed probes); in-doubt: %d surfaced, "+
			"%d resolved commit, %d resolved abort; degraded: %d local acks, %d typed sheds; "+
			"violations: %d",
		r.Config.CC, r.Config.Seeds, r.Config.Schedules, r.Config.Shards, r.MidRunCrashes,
		kills, acked, retries, sheds, f.ReadErrs, f.WriteErrs, f.ForceErrs,
		f.BitFlips, f.TornWrites, f.DroppedWrites, trunc, r.Detected, r.Repaired, r.Probes,
		r.InDoubt, r.ResolvedCommit, r.ResolvedAbort, r.DegradedLocalAcks, r.DegradedSheds,
		len(r.Violations))
}

// totals are the cluster-wide durable counts the durability and
// atomicity checks compare across a schedule.
type totals struct {
	orders, orderLines, history int64
	stockYTD, olQty             uint64
}

// measureTotals counts c's durable rows. Call it only on a quiesced,
// fully recovered cluster.
func measureTotals(c *Cluster) (totals, error) {
	var t totals
	for _, s := range c.shards {
		t.orders += s.DB.Heap(core.Order).Live()
		t.orderLines += s.DB.Heap(core.OrderLine).Live()
		t.history += s.DB.Heap(core.History).Live()
	}
	var err error
	if t.stockYTD, err = c.StockYTDTotal(); err != nil {
		return t, err
	}
	if t.olQty, err = c.OrderLineQtyTotal(); err != nil {
		return t, err
	}
	return t, nil
}

// checkDurable compares the totals live that a recovery left with the
// totals base a run started from. The run acknowledged acked[t]
// transactions of each type and had at most slack more in flight, each
// of which may have committed unacknowledged. It returns every violation:
// an acknowledged New-Order's order or order-lines, or an acknowledged
// Payment's history row, missing (lost); more rows than the slack allows
// (phantom); or stock YTD and order-line quantity grown by different
// amounts — every order line's quantity lands in exactly one stock row's
// YTD, on whatever shard supplies it, atomically, so a half-applied
// New-Order breaks the equation.
func checkDurable(base, live totals, acked [core.NumTxnTypes]int64, slack int64) []string {
	var v []string
	bound := func(what string, got, lo, hi int64) {
		if got < lo {
			v = append(v, fmt.Sprintf("lost acknowledged %s: %d live, want >= %d", what, got, lo))
		} else if got > hi {
			v = append(v, fmt.Sprintf("phantom %s: %d live, want <= %d", what, got, hi))
		}
	}
	no, pay, lines := acked[core.TxnNewOrder], acked[core.TxnPayment], int64(tpcc.ItemsPerOrder)
	bound("new-orders", live.orders, base.orders+no, base.orders+no+slack)
	bound("order-lines", live.orderLines, base.orderLines+no*lines, base.orderLines+(no+slack)*lines)
	bound("payments' history rows", live.history, base.history+pay, base.history+pay+slack)
	if dStock, dOL := live.stockYTD-base.stockYTD, live.olQty-base.olQty; dStock != dOL {
		v = append(v, fmt.Sprintf("atomicity broken: stock YTD grew %d, order-line quantity grew %d",
			dStock, dOL))
	}
	return v
}

// statsTotal sums a counter across shards.
func statsTotal(c *Cluster, f func(Stats) int64) int64 {
	var n int64
	for _, s := range c.shards {
		n += f(s.Stats())
	}
	return n
}

// setFaults turns every shard device's steady-state faults on or off.
func (c *Cluster) setFaults(on bool) {
	for _, s := range c.shards {
		s.Inj.SetEnabled(on)
	}
}

// recoverAll recovers every shard whose device is dead and resolves every
// in-doubt branch, in rounds: a kill inside resolution takes the resolving
// shard or another one (the branch's coordinator) back down, and a
// coordinator still dead leaves a branch in doubt, and its shard down, for
// the next round to settle. It reports whether the cluster came back
// whole: every shard up, no branch in doubt.
func (c *Cluster) recoverAll(r *rng.RNG) bool {
	for round := 0; round < 2+int(NumKillPoints); round++ {
		for id, s := range c.shards {
			if s.Inj.Dead() {
				// A failure leaves the shard down or a branch in
				// doubt, and the check below sees either.
				_ = c.RecoverShard(id, r)
			}
		}
		if c.ResolveInDoubtAll() == nil && c.live() == len(c.shards) {
			return true
		}
	}
	return false
}

// Torture runs the campaign. Errors are setup failures only; invariant
// violations land in the Report.
func Torture(cfg TortureConfig) (*Report, error) {
	if cfg.Seeds < 1 || cfg.Schedules < 1 || cfg.Shards < 1 {
		return nil, fmt.Errorf("shard: need at least one seed, schedule and shard")
	}
	rep := &Report{Config: cfg}
	for s := 1; s <= cfg.Seeds; s++ {
		if err := tortureSeed(cfg, uint64(s), rep); err != nil {
			return rep, fmt.Errorf("shard: seed %d: %w", s, err)
		}
	}
	return rep, nil
}

func tortureSeed(cfg TortureConfig, seed uint64, rep *Report) error {
	seedRng := rng.New(seed)
	c, err := Open(Config{
		Shards:             cfg.Shards,
		WarehousesPerShard: 1,
		PageSize:           torturePageSize,
		BufferPages:        tortureBufferPages,
		Seed:               seed,
		GroupCommit:        cfg.GroupCommit,
		Faults:             tortureFaults,
		CC:                 cfg.CC,
	})
	if err != nil {
		return err
	}
	base, err := measureTotals(c)
	if err != nil {
		return err
	}

	// estOps adapts the crash fuse to the device traffic one shard sees
	// in a schedule, so crashes land inside the run.
	var estOps int64
	for sched := 0; sched < cfg.Schedules; sched++ {
		res := ScheduleResult{Seed: seed, Schedule: sched}
		violate := func(format string, args ...any) {
			v := fmt.Sprintf(format, args...)
			res.Violations = append(res.Violations, v)
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("seed=%d schedule=%d: %s", seed, sched, v))
		}

		// Arm one kill at a drawn protocol point; it fires at most once. A
		// during-resolve plan first kills its victim once after a prepare,
		// so that it has a branch in doubt to resolve.
		plan := NewKillPlan(seedRng, cfg.Shards)
		res.Plan = plan
		rep.KillsDrawn[plan.Point]++
		var fired, primed atomic.Bool
		c.SetKillHook(func(p KillPoint, gid uint64) {
			once := &fired
			if plan.Point == KillDuringResolve && p == KillAfterPrepare {
				once = &primed
			} else if p != plan.Point {
				return
			}
			victim := plan.Victim
			if plan.CoordinatorVictim {
				victim = CoordinatorOf(gid)
			} else if victim == CoordinatorOf(gid) || !c.shards[victim].DB.HasBranch(gid) {
				return // the victim is not one of gid's participants
			}
			if once.CompareAndSwap(false, true) {
				c.KillShard(victim)
			}
		})
		// Arm a crash fuse on a drawn shard's device: it dies at an
		// arbitrary read, write or log force, tearing or dropping the
		// write it lands on.
		inj := c.shards[seedRng.Int63n(int64(cfg.Shards))].Inj
		fuse := 20 + seedRng.Int63n(2000)
		if estOps > 0 {
			fuse = 1 + seedRng.Int63n(estOps)
		}
		opsBefore := inj.Stats().Ops()
		inj.ScheduleCrash(fuse)
		inDoubt0 := statsTotal(c, func(s Stats) int64 { return s.InDoubt })
		rc0 := statsTotal(c, func(s Stats) int64 { return s.ResolvedCommit })
		ra0 := statsTotal(c, func(s Stats) int64 { return s.ResolvedAbort })

		c.setFaults(true)
		st, runErr := Run(c, rng.Substream(seed, uint64(sched)+1000), tpcc.DefaultMix(),
			cfg.Txns, tortureWorkers, tortureRemoteStock, tortureRemotePay)
		res.MidRunCrash = !inj.DisarmCrash()
		c.setFaults(false)
		if runErr != nil {
			violate("run failed fatally: %v", runErr)
		}
		if res.MidRunCrash {
			rep.MidRunCrashes++
		} else if used := inj.Stats().Ops() - opsBefore; used > 0 {
			// The fuse outlived the run: remember the traffic so the
			// next schedule's crash lands mid-run.
			estOps = used
		}
		res.Acked = st.Acknowledged()
		res.Retries = st.Retries
		res.Sheds = st.Sheds

		// Cluster-wide power loss: every shard dies, then recovers on a
		// healthy device. The kill hook stays armed through recovery, so
		// resolution-window kills get exercised too.
		for id := range c.shards {
			c.KillShard(id)
		}
		if !c.recoverAll(seedRng) {
			violate("cluster failed to fully recover within the round budget")
		}
		c.SetKillHook(nil)
		if fired.Load() {
			res.Fired = true
			rep.KillsFired[plan.Point]++
		}

		// Invariants on every shard: no orphaned in-doubt branch, page
		// integrity, TPC-C consistency.
		for _, s := range c.shards {
			rs := s.DB.RecoveryStats()
			res.Recovery.Records += rs.Records
			res.Recovery.Bytes += rs.Bytes
			res.Recovery.Applied += rs.Applied
			res.Recovery.TruncatedBytes += rs.TruncatedBytes
			if n := len(s.DB.InDoubt()); n > 0 {
				violate("shard %d: %d orphaned in-doubt branches", s.ID, n)
			}
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
		// No lost acknowledged commit, no phantom beyond one in-flight
		// transaction per worker, and exact cross-shard atomicity.
		live, err := measureTotals(c)
		if err != nil {
			return err
		}
		for _, v := range checkDurable(base, live, st.Counts, tortureWorkers) {
			violate("%s", v)
		}
		base = live

		// Directed corruption probe on a drawn shard: flip one durable
		// bit and demand the checksum layer detects and repairs it.
		if err := corruptionProbe(c.shards[seedRng.Int63n(int64(cfg.Shards))], seedRng, violate); err != nil {
			return err
		}
		rep.Probes++

		res.InDoubt = statsTotal(c, func(s Stats) int64 { return s.InDoubt }) - inDoubt0
		res.ResolvedCommit = statsTotal(c, func(s Stats) int64 { return s.ResolvedCommit }) - rc0
		res.ResolvedAbort = statsTotal(c, func(s Stats) int64 { return s.ResolvedAbort }) - ra0
		rep.InDoubt += res.InDoubt
		rep.ResolvedCommit += res.ResolvedCommit
		rep.ResolvedAbort += res.ResolvedAbort
		rep.Schedules = append(rep.Schedules, res)
	}

	if cfg.Shards > 1 {
		if err := degradedPhase(cfg, seed, c, rep, &base); err != nil {
			return err
		}
	}
	for _, s := range c.shards {
		rep.Faults.Add(s.Inj.Stats())
		ss := s.DB.StoreStats()
		rep.Detected += ss.Detected
		rep.Repaired += ss.Repaired
	}
	return nil
}

// corruptionProbe flips one bit of a random order-heap page's primary
// image on shard s's raw device (behind the store's back) and verifies
// the checksum layer detects it and repairs it from the journal mirror.
func corruptionProbe(s *Shard, r *rng.RNG, violate func(string, ...any)) error {
	d := s.DB
	ids := d.Heap(core.Order).PageIDs()
	if len(ids) == 0 {
		return nil
	}
	id := ids[r.Int63n(int64(len(ids)))]
	phys := make([]byte, d.Config().PageSize+storage.ChecksumLen)
	if err := s.disk.Read(id, storage.AreaData, phys); err != nil {
		return err
	}
	bit := r.Int63n(int64(len(phys)) * 8)
	phys[bit/8] ^= 1 << uint(bit%8)
	if err := s.disk.Write(id, storage.AreaData, phys); err != nil {
		return err
	}
	before := d.StoreStats()
	vr, err := d.VerifyPages()
	if err != nil {
		violate("probe: shard %d: verification failed: %v", s.ID, err)
		return nil
	}
	if len(vr.Corrupt) > 0 {
		violate("probe: shard %d: flipped bit on page %d unrecoverable: %v", s.ID, id, vr.Corrupt)
	}
	after := d.StoreStats()
	if after.Detected <= before.Detected {
		violate("probe: shard %d: flipped bit on page %d went undetected", s.ID, id)
	}
	if after.Repaired <= before.Repaired {
		violate("probe: shard %d: flipped bit on page %d not repaired from mirror", s.ID, id)
	}
	return nil
}

// degradedPhase holds one shard down under live traffic and asserts
// graceful degradation: surviving shards keep committing local work,
// transactions needing the dead shard are refused with typed errors, and
// the per-shard counters account for the refusals.
func degradedPhase(cfg TortureConfig, seed uint64, c *Cluster, rep *Report, base *totals) error {
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
		cfg.Txns, tortureWorkers, tortureRemoteStock, tortureRemotePay)
	if runErr != nil {
		violate("degraded run failed fatally: %v", runErr)
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
	live, err := measureTotals(c)
	if err != nil {
		return err
	}
	for _, v := range checkDurable(*base, live, st.Counts, tortureWorkers) {
		violate("%s", v)
	}
	*base = live
	return nil
}
