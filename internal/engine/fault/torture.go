package fault

import (
	"fmt"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// TortureConfig sizes a crash-torture campaign: for each of Seeds
// independent databases, Schedules crash schedules are executed — seeded
// concurrent TPC-C load under steady-state faults, a randomly timed
// device crash, power loss, recovery, and a full verification pass.
type TortureConfig struct {
	// BaseSeed derives every seed in the campaign.
	BaseSeed uint64
	// Seeds is the number of independent databases (≥1).
	Seeds int
	// Schedules is the number of crash schedules per seed (≥1).
	Schedules int
	// Txns is the number of transactions attempted per schedule.
	Txns int
	// Workers is the worker-goroutine count per schedule.
	Workers int

	// Warehouses/PageSize/BufferPages size each database instance.
	Warehouses  int
	PageSize    int
	BufferPages int

	// Faults sets steady-state fault probabilities during load phases.
	Faults Config
	// Policy is the retry policy workers run with.
	Policy db.RetryPolicy
	// Mix is the transaction mix (DefaultMix when zero).
	Mix tpcc.Mix
	// CC is the concurrency-control mode every database in the campaign
	// runs under (zero = 2PL). Recovery and the invariants are the same in
	// all three; what differs is which histories reach the log.
	CC db.CCMode
	// GroupCommit configures WAL commit batching for every database in
	// the campaign (zero value = one force per commit, the seed path).
	// The durability invariants checked per schedule are identical in
	// both modes: an acknowledged commit must survive any crash.
	GroupCommit wal.GroupConfig
}

// DefaultTortureConfig returns a small but complete campaign: 5 seeds ×
// 10 schedules exercises 50 distinct crash points.
func DefaultTortureConfig() TortureConfig {
	return TortureConfig{
		BaseSeed:    1,
		Seeds:       5,
		Schedules:   10,
		Txns:        400,
		Workers:     4,
		Warehouses:  1,
		PageSize:    1024,
		BufferPages: 256,
		Faults: Config{
			ReadErrProb:  0.002,
			WriteErrProb: 0.002,
			ForceErrProb: 0.002,
			BitFlipProb:  0.001,
		},
		Policy: db.DefaultRetryPolicy(),
		Mix:    tpcc.DefaultMix(),
	}
}

// ScheduleResult records one crash schedule's outcome.
type ScheduleResult struct {
	Seed     uint64
	Schedule int
	// MidRunCrash reports the crash fired during the load (vs. the
	// quiescent power loss every schedule ends with).
	MidRunCrash bool
	// Acked counts acknowledged transactions in this schedule.
	Acked int64
	// Retries/Sheds are the retry policy's counters for the schedule.
	Retries, Sheds int64
	// Recovery is what the schedule's crash recovery read, applied and
	// discarded.
	Recovery wal.RecoverStats
	// Violations lists every invariant this schedule broke (empty = pass).
	Violations []string
}

// Report aggregates a torture campaign.
type Report struct {
	Config    TortureConfig
	Schedules []ScheduleResult
	// Violations flattens every schedule violation with its provenance.
	Violations []string
	// MidRunCrashes counts schedules whose crash fired under load.
	MidRunCrashes int
	// Injector totals across all seeds.
	Faults Stats
	// Store totals across all seeds (checksum detections/repairs).
	Detected, Repaired int64
	// Probes counts directed-corruption probes; every one must be
	// detected and repaired for the campaign to pass.
	Probes int
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
	return fmt.Sprintf(
		"torture: cc=%s, %d seeds x %d schedules (%d mid-run crashes), %d acked txns, "+
			"%d retries, %d sheds; faults: %d read, %d write, %d force errs, "+
			"%d bit flips, %d torn, %d dropped writes; %d log bytes truncated; "+
			"checksums: %d detected, %d repaired (%d directed probes); violations: %d",
		r.Config.CC, r.Config.Seeds, r.Config.Schedules, r.MidRunCrashes, acked,
		retries, sheds,
		r.Faults.ReadErrs, r.Faults.WriteErrs, r.Faults.ForceErrs,
		r.Faults.BitFlips, r.Faults.TornWrites, r.Faults.DroppedWrites,
		trunc, r.Detected, r.Repaired, r.Probes, len(r.Violations))
}

// baseline holds the verified durable row counts a schedule starts from.
type baseline struct {
	orders, orderLines, history int64
}

func measure(d *db.DB) baseline {
	return baseline{
		orders:     d.Heap(core.Order).Live(),
		orderLines: d.Heap(core.OrderLine).Live(),
		history:    d.Heap(core.History).Live(),
	}
}

// Torture runs the campaign. It returns an error only for setup failures
// (bad config, load errors); invariant violations land in the Report.
func Torture(cfg TortureConfig) (*Report, error) {
	if cfg.Seeds < 1 || cfg.Schedules < 1 {
		return nil, fmt.Errorf("fault: need at least one seed and one schedule")
	}
	if cfg.Mix.Validate() != nil {
		cfg.Mix = tpcc.DefaultMix()
	}
	if cfg.Policy.MaxAttempts == 0 {
		cfg.Policy = db.DefaultRetryPolicy()
	}
	rep := &Report{Config: cfg}
	for s := 0; s < cfg.Seeds; s++ {
		seed := cfg.BaseSeed + uint64(s)
		if err := tortureSeed(cfg, seed, rep); err != nil {
			return rep, fmt.Errorf("fault: seed %d: %w", seed, err)
		}
	}
	return rep, nil
}

func tortureSeed(cfg TortureConfig, seed uint64, rep *Report) error {
	seedRng := rng.New(seed)
	disk := storage.NewMemDisk()
	inj := New(disk, seedRng.Uint64())
	inj.SetConfig(cfg.Faults)
	d, err := db.OpenWith(db.Config{
		Warehouses:  cfg.Warehouses,
		PageSize:    cfg.PageSize,
		BufferPages: cfg.BufferPages,
		CC:          cfg.CC,
	}, db.Options{Disk: inj, LogHook: inj, GroupCommit: cfg.GroupCommit})
	if err != nil {
		return err
	}
	// Load on a healthy device, then checkpoint: the initial population
	// is installed without logging, so it must be durable before the
	// first crash.
	if err := d.Load(seed); err != nil {
		return err
	}
	if err := d.Checkpoint(); err != nil {
		return err
	}
	base := measure(d)

	// estOps adapts the crash fuse to the device traffic one schedule
	// actually generates, so crashes land inside the run.
	var estOps int64
	for sched := 0; sched < cfg.Schedules; sched++ {
		res := ScheduleResult{Seed: seed, Schedule: sched}
		violate := func(format string, args ...any) {
			v := fmt.Sprintf(format, args...)
			res.Violations = append(res.Violations, v)
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("seed=%d schedule=%d: %s", seed, sched, v))
		}

		opsBefore := inj.Stats().Ops()
		var fuse int64
		if estOps > 0 {
			fuse = 1 + seedRng.Int63n(estOps)
		} else {
			fuse = 20 + seedRng.Int63n(2000)
		}
		inj.SetEnabled(true)
		inj.ScheduleCrash(fuse)

		st, runErr := db.RunConcurrentPolicy(d, seedRng.Uint64(), cfg.Mix,
			cfg.Txns, cfg.Workers, cfg.Policy)
		inj.DisarmCrash()
		if runErr != nil {
			violate("run failed fatally: %v", runErr)
		}
		res.MidRunCrash = st.Crashed
		if st.Crashed {
			rep.MidRunCrashes++
		} else if used := inj.Stats().Ops() - opsBefore; used > 0 {
			// The fuse outlived the run: remember the traffic so the
			// next schedule's crash lands mid-run.
			estOps = used
		}
		res.Acked = st.Acknowledged()
		res.Retries = st.Retries
		res.Sheds = st.Sheds

		// Power loss: volatile buffers gone, unforced log tail damaged.
		// Recovery runs on a healthy, revived device.
		inj.SetEnabled(false)
		inj.Kill()
		if err := d.CrashPowerLoss(seedRng); err != nil {
			return err
		}
		inj.Revive()
		if err := d.Recover(); err != nil {
			violate("recovery failed: %v", err)
			return fmt.Errorf("unrecoverable: %v", res.Violations)
		}
		res.Recovery = d.RecoveryStats()

		// Verification: page integrity, TPC-C consistency, durability.
		vr, err := d.VerifyPages()
		if err != nil {
			violate("page verification failed: %v", err)
		} else if len(vr.Corrupt) > 0 {
			violate("unrecoverable pages after crash: %v", vr.Corrupt)
		}
		if err := d.CheckConsistency(); err != nil {
			violate("consistency: %v", err)
		}
		live := measure(d)
		ackedNO := st.Counts[core.TxnNewOrder]
		ackedPay := st.Counts[core.TxnPayment]
		slack := int64(cfg.Workers)
		if lo := base.orders + ackedNO; live.orders < lo {
			violate("lost acknowledged new-orders: %d orders live, want >= %d (base %d + acked %d)",
				live.orders, lo, base.orders, ackedNO)
		} else if hi := lo + slack; live.orders > hi {
			violate("phantom orders: %d live, want <= %d", live.orders, hi)
		}
		olPer := int64(tpcc.ItemsPerOrder)
		if lo := base.orderLines + ackedNO*olPer; live.orderLines < lo {
			violate("lost order-lines of acknowledged new-orders: %d live, want >= %d",
				live.orderLines, lo)
		} else if hi := lo + slack*olPer; live.orderLines > hi {
			violate("phantom order-lines: %d live, want <= %d", live.orderLines, hi)
		}
		if lo := base.history + ackedPay; live.history < lo {
			violate("lost acknowledged payments: %d history rows, want >= %d",
				live.history, lo)
		} else if hi := lo + slack; live.history > hi {
			violate("phantom history rows: %d live, want <= %d", live.history, hi)
		}
		base = live

		// Directed corruption probe: flip one durable bit and demand the
		// checksum layer detects and repairs it.
		if err := corruptionProbe(d, disk, seedRng, violate); err != nil {
			return err
		}
		rep.Probes++
		rep.Schedules = append(rep.Schedules, res)
	}
	fs := inj.Stats()
	rep.Faults.Reads += fs.Reads
	rep.Faults.Writes += fs.Writes
	rep.Faults.Forces += fs.Forces
	rep.Faults.ReadErrs += fs.ReadErrs
	rep.Faults.WriteErrs += fs.WriteErrs
	rep.Faults.ForceErrs += fs.ForceErrs
	rep.Faults.BitFlips += fs.BitFlips
	rep.Faults.TornWrites += fs.TornWrites
	rep.Faults.DroppedWrites += fs.DroppedWrites
	rep.Faults.Crashes += fs.Crashes
	ss := d.StoreStats()
	rep.Detected += ss.Detected
	rep.Repaired += ss.Repaired
	return nil
}

// corruptionProbe flips one bit of a random heap page's primary image on
// the raw device (behind the store's back) and verifies the checksum
// layer detects it and repairs from the journal mirror.
func corruptionProbe(d *db.DB, disk *storage.MemDisk, r *rng.RNG,
	violate func(string, ...any)) error {
	ids := d.Heap(core.Order).PageIDs()
	if len(ids) == 0 {
		return nil
	}
	id := ids[r.Int63n(int64(len(ids)))]
	phys := make([]byte, d.Config().PageSize+storage.ChecksumLen)
	if err := disk.Read(id, storage.AreaData, phys); err != nil {
		return err
	}
	bit := r.Int63n(int64(len(phys)) * 8)
	phys[bit/8] ^= 1 << uint(bit%8)
	if err := disk.Write(id, storage.AreaData, phys); err != nil {
		return err
	}
	before := d.StoreStats()
	vr, err := d.VerifyPages()
	if err != nil {
		violate("probe: verification failed: %v", err)
		return nil
	}
	if len(vr.Corrupt) > 0 {
		violate("probe: flipped bit on page %d unrecoverable: %v", id, vr.Corrupt)
	}
	after := d.StoreStats()
	if after.Detected <= before.Detected {
		violate("probe: flipped bit on page %d went undetected", id)
	}
	if after.Repaired <= before.Repaired {
		violate("probe: flipped bit on page %d not repaired from mirror", id)
	}
	return nil
}
