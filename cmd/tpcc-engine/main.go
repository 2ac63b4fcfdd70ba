// Command tpcc-engine runs the executable TPC-C engine — the system the
// paper models but never built — and reports measured per-relation buffer
// miss rates, transaction counts, lock statistics, commit-latency
// quantiles, and optionally a crash/recovery cycle. Commits release their
// locks at pre-commit and then wait for the log; group commit is on by
// default, so a force covers every record buffered while the previous one
// was at the device and forces per commit drop below 1 under concurrency
// (disable with -group-commit=false for the model's one log I/O per
// committing writer). With -shards N > 1 it runs the engine as a
// warehouse-sharded cluster instead: N instances of -warehouses
// warehouses each under presumed-abort two-phase commit, driven by the
// same terminal, then prints per-shard commit counts and the Appendix A
// remote-call rates measured at the router.
//
// Usage:
//
//	tpcc-engine -warehouses 1 -buffer-pages 8192 -txns 20000 -workers 4
//	tpcc-engine -txns 5000 -crash
//	tpcc-engine -shards 4 -warmup 0 -txns 5000
//	tpcc-engine -bench-commit BENCH_commit.json
//	tpcc-engine -commit-smoke
//	tpcc-engine -cc mvcc -txns 20000 -workers 4
//	tpcc-engine -cc ssi -txns 20000 -workers 4
//	tpcc-engine -bench-cc BENCH_cc.json
//	tpcc-engine -cc-smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/shard"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

func main() {
	var (
		warehouses  = flag.Int("warehouses", 1, "warehouse count (per shard with -shards)")
		bufferPages = flag.Int("buffer-pages", 8192, "buffer pool capacity in 4K pages (per shard with -shards)")
		shards      = flag.Int("shards", 1, "run a warehouse-sharded cluster of this many nodes (> 1 needs -warmup 0 and no -crash)")
		txns        = flag.Int("txns", 10000, "transactions to execute")
		warmup      = flag.Int("warmup", 1000, "warmup transactions before measuring")
		workers     = flag.Int("workers", 4, "concurrent workers")
		seed        = flag.Uint64("seed", 1993, "random seed")
		crash       = flag.Bool("crash", false, "crash and recover after the run, verifying invariants")
		groupCommit = flag.Bool("group-commit", true, "share log forces: a force covers everything pre-committed while the previous one ran")
		benchCommit = flag.String("bench-commit", "", "instead of a single run, benchmark grouped vs ungrouped commit at 1/2/4/8 workers and write this JSON report")
		benchEngine = flag.String("bench-engine", "", "instead of a single run, benchmark engine throughput and allocations at 1/2/4/8 workers (grouped and ungrouped) and write this JSON report")
		benchCC     = flag.String("bench-cc", "", "instead of a single run, benchmark 2pl vs mvcc vs ssi at 1/2/4/8 workers with per-type abort rates and write this JSON report")
		commitSmoke = flag.Bool("commit-smoke", false, "CI smoke: reduced grouped-vs-ungrouped cells at 1/2/4/8 workers on a 1 ms log device; exit 1 unless ungrouped forces once per writing commit, grouped batches and keeps up, and read-only commits force nothing")
		ccSmoke     = flag.Bool("cc-smoke", false, "CI smoke: write-skew certification plus reduced 2pl/mvcc/ssi cells; exit 1 unless single-worker state hashes match across modes and snapshot-mode throughput keeps up")
		ccFlag      = flag.String("cc", "2pl", "concurrency control mode: 2pl (shared read locks), mvcc (snapshot reads, first-committer-wins) or ssi (mvcc plus serializability validation)")
		benchFile   = flag.String("bench-file", "", "with -commit-smoke / -cc-smoke: also check this checked-in BENCH_*.json against the CLI defaults and thresholds")
	)
	cpuProf, memProf := cliutil.ProfileFlags()
	mutexProf, blockProf := cliutil.ContentionProfileFlags()
	flag.Parse()

	const tool = "tpcc-engine"
	cliutil.RequirePositive(tool, "warehouses", int64(*warehouses))
	cliutil.RequirePositive(tool, "buffer-pages", int64(*bufferPages))
	cliutil.RequirePositive(tool, "txns", int64(*txns))
	cliutil.RequireNonNegative(tool, "warmup", int64(*warmup))
	cliutil.RequirePositive(tool, "workers", int64(*workers))
	cliutil.RequirePositive(tool, "shards", int64(*shards))
	if *shards > 1 && *crash {
		cliutil.Fail(tool, "-crash runs on one node: drop it or use -shards 1")
	}
	if *shards > 1 && *warmup > 0 {
		cliutil.Fail(tool, "-shards %d needs -warmup 0: the per-shard and Appendix A counters count from the load", *shards)
	}

	stopProf := cliutil.StartProfiles(tool, *cpuProf, *memProf)
	stopContention := cliutil.StartContentionProfiles(tool, *mutexProf, *blockProf)
	stop := func() { stopProf(); stopContention() }

	ccMode, err := db.ParseCCMode(*ccFlag)
	if err != nil {
		fatal(err)
	}

	gcfg := wal.GroupConfig{MaxBatch: groupMaxBatch}
	group := wal.GroupConfig{}
	if *groupCommit {
		group = gcfg
	}

	if *benchCommit != "" {
		if err := runBenchCommit(*benchCommit, *seed, gcfg); err != nil {
			fatal(err)
		}
		stop()
		return
	}
	if *benchEngine != "" {
		if err := runBenchEngine(*benchEngine, *seed, gcfg); err != nil {
			fatal(err)
		}
		stop()
		return
	}
	if *benchCC != "" {
		if err := runBenchCC(*benchCC, *seed, group); err != nil {
			fatal(err)
		}
		stop()
		return
	}
	if *ccSmoke {
		if err := runCCSmoke(*seed, group, *benchFile); err != nil {
			fatal(err)
		}
		stop()
		return
	}
	if *commitSmoke {
		if err := runCommitSmoke(*seed, gcfg, *benchFile); err != nil {
			fatal(err)
		}
		stop()
		return
	}

	mix := tpcc.DefaultMix()
	if *shards > 1 {
		cfg := shard.DefaultConfig(*shards)
		cfg.WarehousesPerShard = *warehouses
		cfg.BufferPages = *bufferPages
		cfg.Seed = *seed
		cfg.CC = ccMode
		cfg.GroupCommit = group
		if err := runCluster(cfg, mix, *txns, *workers); err != nil {
			fatal(err)
		}
		stop()
		return
	}

	d, err := db.OpenWith(db.Config{
		Warehouses: *warehouses, PageSize: 4096, BufferPages: *bufferPages, CC: ccMode,
	}, db.Options{GroupCommit: group})
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loading %d warehouse(s)...\n", *warehouses)
	start := time.Now()
	if err := d.Load(*seed); err != nil {
		fatal(err)
	}
	if err := d.VerifyCounts(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "loaded in %v\n", time.Since(start).Round(time.Millisecond))

	if *warmup > 0 {
		if err := db.RunConcurrent(d, *seed+1, mix, *warmup, *workers); err != nil {
			fatal(err)
		}
	}
	d.ResetBufferStats()

	st, err := db.RunConcurrentPolicy(d, *seed+2, mix, *txns, *workers, db.DefaultRetryPolicy())
	if err != nil {
		fatal(err)
	}

	mode := "per-commit force"
	if group.Enabled() {
		mode = "group commit"
	}
	fmt.Printf("# engine run: %d txns, %d workers, %d-page pool, %s, %v, %s\n",
		*txns, *workers, *bufferPages, ccMode, st.Elapsed.Round(time.Millisecond), mode)
	fmt.Printf("txns_per_sec\t%.0f\n", float64(*txns)/st.Elapsed.Seconds())
	st.WriteTable(os.Stdout)
	fmt.Printf("commits\t%d\naborts\t%d\nlog_forces\t%d\n", st.Commits, st.Aborts, st.LogForces)
	fmt.Printf("forces_per_commit\t%.4f\n", st.ForcesPerCommit())
	acq, waits, deadlocks := d.LockCounts()
	fmt.Printf("locks_acquired\t%d\nlock_waits\t%d\ndeadlocks\t%d\n", acq, waits, deadlocks)
	if ccMode != db.CC2PL {
		fmt.Printf("write_conflicts\t%d\nversion_chains\t%d\n", d.WriteConflicts(), d.VersionChains())
	}
	if ccMode == db.CCSSI {
		fmt.Printf("ssi_aborts\t%d\n", d.SSIAborts())
	}

	fmt.Printf("\nrelation\taccesses\tmiss_rate\n")
	stats := d.RelationStats()
	for _, rel := range core.Relations() {
		s := stats[rel]
		fmt.Printf("%s\t%d\t%.4f\n", rel, s.Accesses(), s.MissRate())
	}

	if *crash {
		fmt.Fprintf(os.Stderr, "simulating crash + recovery...\n")
		before := d.Heap(core.Order).Live()
		if err := d.Crash(); err != nil {
			fatal(err)
		}
		if err := d.Recover(); err != nil {
			fatal(err)
		}
		after := d.Heap(core.Order).Live()
		fmt.Printf("\nrecovery\torders_before=%d\torders_after=%d\n", before, after)
		if before != after {
			fatal(fmt.Errorf("order count changed across crash: %d -> %d", before, after))
		}
		if err := d.CheckConsistency(); err != nil {
			fatal(err)
		}
		fmt.Printf("consistency_checks\tC1-C4\tok\n")
		// Prove the system still works.
		if err := db.RunConcurrent(d, *seed+3, mix, 100, 2); err != nil {
			fatal(err)
		}
		fmt.Printf("post_recovery_txns\t100\tok\n")
	}
	stop()
}

// runCluster opens a warehouse-sharded cluster and drives it with the
// single-instance terminal (shard.Run: db.Runner over the cluster's router)
// at the benchmark's 1 % / 15 % remote probabilities, printing the same
// RunStats table a single-instance run prints, then each shard's local,
// distributed and participant commits (local plus distributed, summed
// over shards, is the acknowledged count) and the Appendix A rates counted
// at the router. The measured run draws from the seed the shards load.
func runCluster(cfg shard.Config, mix tpcc.Mix, txns, workers int) error {
	c, err := shard.Open(cfg)
	if err != nil {
		return err
	}
	st, err := shard.Run(c, cfg.Seed, mix, txns, workers, db.DefaultRetryPolicy(), -1, -1)
	if err != nil {
		return err
	}
	if n := c.Quiesce(time.Second); n > 0 {
		return fmt.Errorf("%d participant commits still pending", n)
	}
	if err := c.CheckAll(); err != nil {
		return fmt.Errorf("consistency: %w", err)
	}
	acked := st.Acknowledged()
	fmt.Printf("cluster: %d shards x %d warehouses, %d txns acked in %v (%.0f txn/s), %d retries, %d sheds\n",
		cfg.Shards, cfg.WarehousesPerShard, acked, st.Elapsed.Round(time.Millisecond),
		float64(acked)/st.Elapsed.Seconds(), st.Retries, st.Sheds)
	st.WriteTable(os.Stdout)
	fmt.Println("shard\tlocal\tdist\tparticipant\taborts\tsheds")
	for _, s := range c.Shards() {
		ss := s.Stats()
		fmt.Printf("%d\t%d\t%d\t%d\t%d\t%d\n", s.ID,
			ss.LocalCommits, ss.DistCommits, ss.ParticipantCommits,
			ss.DistAborts, ss.Sheds+ss.DownSheds)
	}
	m := c.Xval()
	fmt.Printf("measured: E[R_s]=%.4f RC_stock=%.4f L_stock=%.4f U_stock=%.4f RC_cust=%.4f U_cust=%.4f\n",
		m.ERs, m.RCStock, m.LStock, m.UStock, m.RCCust, m.UCust)
	return nil
}

// groupMaxBatch is the wal.GroupConfig.MaxBatch of every grouped run. Any
// value above 1 only switches batching on; it bounds nothing.
// BENCH_commit.json records it as gc_max_batch.
const groupMaxBatch = 64

// commitCell is one grouped-vs-ungrouped benchmark measurement.
type commitCell struct {
	Workers         int     `json:"workers"`
	Grouped         bool    `json:"grouped"`
	TxnsPerSec      float64 `json:"txns_per_sec"`
	TpmC            float64 `json:"tpmc"`
	Commits         int64   `json:"commits"`
	Aborts          int64   `json:"aborts"`
	LogForces       int64   `json:"log_forces"`
	LogWaits        int64   `json:"log_waits"`
	ForcesPerCommit float64 `json:"forces_per_commit"`
	AllocsPerTxn    float64 `json:"allocs_per_txn"`
	P50Micros       int64   `json:"p50_us"`
	P95Micros       int64   `json:"p95_us"`
	P99Micros       int64   `json:"p99_us"`
	MeanMicros      int64   `json:"mean_us"`

	acked int64 // acknowledged transactions, for the parity gate
}

// commitForceCost is what a log force costs in the commit-path cells. On
// a free device there is nothing for group commit to amortise and nothing
// for early lock release to overlap; time.Sleep cannot wait much less.
const commitForceCost = time.Millisecond

// sleepLog is a log device with a service time: every force sleeps for it
// (once charging is switched on, so loading and warm-up stay free) and is
// counted.
type sleepLog struct {
	cost   atomic.Int64 // nanoseconds
	forces atomic.Int64
}

func (s *sleepLog) BeforeForce(int) error {
	s.forces.Add(1)
	if c := s.cost.Load(); c > 0 {
		time.Sleep(time.Duration(c))
	}
	return nil
}

// runCommitCell loads a fresh single-warehouse instance whose log force
// costs forceCost and measures one (workers, grouped) cell.
// forces_per_commit is forces over the commits that waited for one (the
// writers); allocs_per_txn is a process-wide mallocs delta over the
// measured run — it includes runner bookkeeping and is an observability
// metric, not the allocation gate (that lives in the db package's test).
func runCommitCell(seed uint64, txns, warmup, workers, pages int, group wal.GroupConfig, forceCost time.Duration) (commitCell, error) {
	dev := &sleepLog{}
	d, err := db.OpenWith(db.Config{Warehouses: 1, PageSize: 4096, BufferPages: pages},
		db.Options{GroupCommit: group, LogHook: dev})
	if err != nil {
		return commitCell{}, err
	}
	if err := d.Load(seed); err != nil {
		return commitCell{}, err
	}
	mix := tpcc.DefaultMix()
	if warmup > 0 {
		if err := db.RunConcurrent(d, seed+1, mix, warmup, workers); err != nil {
			return commitCell{}, err
		}
	}
	// Collect garbage from the previous cell (its whole discarded buffer
	// pool is dead heap) so no inherited GC cycle lands mid-measurement.
	runtime.GC()
	var msBefore, msAfter runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	dev.cost.Store(int64(forceCost))
	st, err := db.RunConcurrentPolicy(d, seed+2, mix, txns, workers, db.DefaultRetryPolicy())
	if err != nil {
		return commitCell{}, err
	}
	runtime.ReadMemStats(&msAfter)
	return commitCell{
		Workers:         workers,
		Grouped:         group.Enabled(),
		TxnsPerSec:      float64(txns) / st.Elapsed.Seconds(),
		TpmC:            st.TpmC(),
		Commits:         st.Commits,
		Aborts:          st.Aborts,
		LogForces:       st.LogForces,
		LogWaits:        st.LogWaits,
		ForcesPerCommit: st.ForcesPerCommit(),
		AllocsPerTxn:    float64(msAfter.Mallocs-msBefore.Mallocs) / float64(txns),
		P50Micros:       st.Latency.P50.Microseconds(),
		P95Micros:       st.Latency.P95.Microseconds(),
		P99Micros:       st.Latency.P99.Microseconds(),
		MeanMicros:      st.Latency.Mean.Microseconds(),
		acked:           st.Acknowledged(),
	}, nil
}

// benchReport is the BENCH_commit.json / BENCH_engine.json schema.
type benchReport struct {
	cliutil.Hardware
	Warehouses int          `json:"warehouses"`
	Txns       int          `json:"txns_per_cell"`
	MaxBatch   int          `json:"gc_max_batch"`
	ForceUS    int64        `json:"log_force_us"`
	Cells      []commitCell `json:"cells"`
}

// runBenchGrid measures grouped vs ungrouped cells at 1/2/4/8 workers on
// fresh instances and writes the JSON report extending the BENCH_*
// trajectory.
func runBenchGrid(tag, path string, seed uint64, txns, warmup, pages int, group wal.GroupConfig, forceCost time.Duration) error {
	rep := benchReport{
		Hardware:   cliutil.HardwareInfo(),
		Warehouses: 1,
		Txns:       txns,
		MaxBatch:   group.MaxBatch,
		ForceUS:    forceCost.Microseconds(),
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, g := range []wal.GroupConfig{{}, group} {
			cell, err := runCommitCell(seed, txns, warmup, workers, pages, g, forceCost)
			if err != nil {
				return fmt.Errorf("workers=%d grouped=%v: %w", workers, g.Enabled(), err)
			}
			fmt.Fprintf(os.Stderr,
				"%s: workers=%d grouped=%-5v tpmC=%-8.0f forces/commit=%.3f allocs/txn=%.1f p99=%dus\n",
				tag, cell.Workers, cell.Grouped, cell.TpmC, cell.ForcesPerCommit,
				cell.AllocsPerTxn, cell.P99Micros)
			rep.Cells = append(rep.Cells, cell)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runBenchCommit writes the commit-path report (BENCH_commit.json): the
// grouped-vs-ungrouped grid on a log device that costs commitForceCost a
// force, at the pool size the commit benchmarks have always used.
func runBenchCommit(path string, seed uint64, group wal.GroupConfig) error {
	return runBenchGrid("bench-commit", path, seed, 4000, 500, 8192, group, commitForceCost)
}

// runBenchEngine writes the engine throughput report (BENCH_engine.json):
// the same grid on a free device with the whole warehouse buffer-resident,
// so the cells measure the hot execution path (and its allocs/txn) rather
// than pool churn or the log.
func runBenchEngine(path string, seed uint64, group wal.GroupConfig) error {
	return runBenchGrid("bench-engine", path, seed, 10000, 1000, 32768, group, 0)
}

// checkCommitCells applies the commit path's gates to one worker count's
// ungrouped/grouped pair, live or checked in: without batching every
// writing commit forces exactly once; with it, two or more workers share
// forces; and sharing costs no throughput.
func checkCommitCells(ungrouped, grouped commitCell) error {
	workers := ungrouped.Workers
	if ungrouped.ForcesPerCommit != 1 {
		return fmt.Errorf("ungrouped forces per writing commit = %.4f at %d workers, want exactly 1",
			ungrouped.ForcesPerCommit, workers)
	}
	if workers >= 2 && grouped.ForcesPerCommit >= 1 {
		return fmt.Errorf("grouped forces per writing commit = %.4f at %d workers, want < 1",
			grouped.ForcesPerCommit, workers)
	}
	if grouped.TpmC < 0.9*ungrouped.TpmC {
		return fmt.Errorf("grouped tpmC %.0f < 0.9 x ungrouped %.0f at %d workers",
			grouped.TpmC, ungrouped.TpmC, workers)
	}
	return nil
}

// checkBenchReport validates a checked-in BENCH_commit.json against
// groupMaxBatch and the gates the live smoke applies, so the committed
// evidence cannot drift from the code.
func checkBenchReport(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep benchReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.MaxBatch != groupMaxBatch {
		return fmt.Errorf("%s: gc_max_batch %d does not match the binary's %d — regenerate with make bench-commit",
			path, rep.MaxBatch, groupMaxBatch)
	}
	if rep.ForceUS != commitForceCost.Microseconds() {
		return fmt.Errorf("%s: log_force_us %d, want %d — regenerate with make bench-commit",
			path, rep.ForceUS, commitForceCost.Microseconds())
	}
	byWorkers := map[int]map[bool]commitCell{}
	for _, c := range rep.Cells {
		if byWorkers[c.Workers] == nil {
			byWorkers[c.Workers] = map[bool]commitCell{}
		}
		byWorkers[c.Workers][c.Grouped] = c
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pair, ok := byWorkers[workers]
		if !ok || len(pair) != 2 {
			return fmt.Errorf("%s: missing grouped/ungrouped pair at %d workers", path, workers)
		}
		if err := checkCommitCells(pair[false], pair[true]); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	return nil
}

// runCommitSmoke is the CI gate for the commit path, on a log device that
// costs commitForceCost a force. Reduced cells at 1/2/4/8 workers must
// pass checkCommitCells and acknowledge every transaction in both modes;
// and read-only transactions must neither write a log record
// nor force when nothing is pending. Cells are device-bound, so one run
// each tells the modes apart. With benchFile set, the checked-in report
// is validated too.
func runCommitSmoke(seed uint64, group wal.GroupConfig, benchFile string) error {
	const txns, warmup = 1000, 200
	fmt.Printf("mode\tworkers\tforces_per_commit\ttpmc\tp99_us\n")
	for _, workers := range []int{1, 2, 4, 8} {
		u, err := runCommitCell(seed, txns, warmup, workers, 8192, wal.GroupConfig{}, commitForceCost)
		if err != nil {
			return err
		}
		g, err := runCommitCell(seed, txns, warmup, workers, 8192, group, commitForceCost)
		if err != nil {
			return err
		}
		fmt.Printf("ungrouped\t%d\t%.4f\t%.0f\t%d\n", workers, u.ForcesPerCommit, u.TpmC, u.P99Micros)
		fmt.Printf("grouped\t%d\t%.4f\t%.0f\t%d\n", workers, g.ForcesPerCommit, g.TpmC, g.P99Micros)
		if err := checkCommitCells(u, g); err != nil {
			return err
		}
		if u.acked != txns || g.acked != txns {
			return fmt.Errorf("acknowledged %d ungrouped and %d grouped of %d transactions at %d workers",
				u.acked, g.acked, txns, workers)
		}
	}
	if err := checkReadOnlyCommits(seed, group); err != nil {
		return err
	}
	if benchFile != "" {
		if err := checkBenchReport(benchFile); err != nil {
			return err
		}
		fmt.Printf("bench-report\t%s\tok\n", benchFile)
	}
	fmt.Println("commit-smoke: ok")
	return nil
}

// checkReadOnlyCommits runs Order-Status and Stock-Level alone, in every
// concurrency-control mode: with no writer's record pending they must
// commit without a log wait and without a force.
func checkReadOnlyCommits(seed uint64, group wal.GroupConfig) error {
	mix := tpcc.Mix{core.TxnOrderStatus: 0.5, core.TxnStockLevel: 0.5}
	for _, cc := range []db.CCMode{db.CC2PL, db.CCMVCC, db.CCSSI} {
		dev := &sleepLog{}
		d, err := db.OpenWith(db.Config{Warehouses: 1, PageSize: 4096, BufferPages: 8192, CC: cc},
			db.Options{GroupCommit: group, LogHook: dev})
		if err != nil {
			return err
		}
		if err := d.Load(seed); err != nil {
			return err
		}
		dev.cost.Store(int64(commitForceCost))
		st, err := db.RunConcurrentPolicy(d, seed+2, mix, 400, 2, db.DefaultRetryPolicy())
		if err != nil {
			return err
		}
		if st.Commits != 400 || st.LogWaits != 0 || dev.forces.Load() != 0 {
			return fmt.Errorf("%s: %d read-only commits waited for the log %d times and forced it %d times, want 400, 0, 0",
				cc, st.Commits, st.LogWaits, dev.forces.Load())
		}
		fmt.Printf("read-only\t%s\t%d commits\t0 forces\n", cc, st.Commits)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tpcc-engine: %v\n", err)
	os.Exit(1)
}
