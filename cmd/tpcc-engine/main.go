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
//	tpcc-engine -cc mvcc -txns 20000 -workers 4
//	tpcc-engine -cc ssi -txns 20000 -workers 4
//
// The gates that judge the engine's commit path and concurrency-control
// modes, and the BENCH_*.json files they write, are tpcc-check's.
package main

import (
	"flag"
	"fmt"
	"os"
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
		ccFlag      = flag.String("cc", "2pl", "concurrency control mode: 2pl (shared read locks), mvcc (snapshot reads, first-committer-wins) or ssi (mvcc plus serializability validation)")
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

	group := wal.GroupConfig{}
	if *groupCommit {
		group.MaxBatch = groupMaxBatch
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
	fmt.Printf("txns_per_sec\t%.0f\n", float64(st.Acknowledged())/st.Elapsed.Seconds())
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
	st, err := shard.Run(c, cfg.Seed, mix, txns, workers, -1, -1)
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
const groupMaxBatch = 64

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tpcc-engine: %v\n", err)
	os.Exit(1)
}
