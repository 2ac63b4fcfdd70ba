// Command tpcc-shard runs the engine as a warehouse-sharded cluster: one
// storage engine per warehouse group, a deterministic router classifying
// transactions local/remote per the benchmark mix, and a presumed-abort
// two-phase commit layered on each shard's WAL.
//
// Modes:
//
//	(default)  drive a benchmark run with the engine's one TPC-C terminal
//	           (db.Runner, as tpcc-engine does) and print its tpmC /
//	           latency / per-type abort table, per-shard statistics and
//	           the Appendix A cross-shard rates measured at the router
//	-xval      run the Appendix A validation gate: measured remote-call
//	           rates must match model.DistConfig.Expect() within Z
//	           standard errors (exit 1 on disagreement)
//	-torture   run the shard-kill torture campaign: kills at 2PC protocol
//	           points, cluster-wide power loss, recovery, in-doubt
//	           resolution, and invariant checks (exit 1 on violation)
//
// Usage:
//
//	tpcc-shard -shards 4 -txns 5000 -workers 4
//	tpcc-shard -xval -shards 3 -txns 4000 -remote-stock 0.1 -remote-pay 0.3
//	tpcc-shard -torture -seeds 3 -schedules 6
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/shard"
	"tpccmodel/internal/tpcc"
	"tpccmodel/internal/xval"
)

func main() {
	var (
		shards      = flag.Int("shards", 3, "shard (node) count N")
		wh          = flag.Int("warehouses", 1, "warehouses per shard")
		txns        = flag.Int("txns", 2000, "transactions to attempt")
		workers     = flag.Int("workers", 4, "concurrent workers")
		seed        = flag.Uint64("seed", 1, "random seed")
		remoteStock = flag.Float64("remote-stock", -1, "remote-supplier probability per item (-1 = benchmark 1%)")
		remotePay   = flag.Float64("remote-pay", -1, "remote-customer probability per Payment (-1 = benchmark 15%)")
		xvalMode    = flag.Bool("xval", false, "run the Appendix A cross-shard validation gate")
		tortureMode = flag.Bool("torture", false, "run the shard-kill torture campaign")
		seeds       = flag.Int("seeds", 3, "torture: independent cluster seeds")
		schedules   = flag.Int("schedules", 6, "torture: kill schedules per seed")
		z           = flag.Float64("z", 5, "xval: tolerance in standard errors")
		jsonOut     = flag.Bool("json", false, "emit JSON instead of TSV (xval mode)")
		verbose     = flag.Bool("v", false, "print per-schedule torture results")
		ccFlag      = flag.String("cc", "2pl", "per-shard concurrency control mode: 2pl, mvcc or ssi")
	)
	cpuProf, memProf := cliutil.ProfileFlags()
	mutexProf, blockProf := cliutil.ContentionProfileFlags()
	flag.Parse()

	const tool = "tpcc-shard"
	cliutil.RequirePositive(tool, "shards", int64(*shards))
	cliutil.RequirePositive(tool, "warehouses", int64(*wh))
	cliutil.RequirePositive(tool, "txns", int64(*txns))
	cliutil.RequirePositive(tool, "workers", int64(*workers))
	if *remoteStock >= 0 {
		cliutil.RequireProb(tool, "remote-stock", *remoteStock)
	}
	if *remotePay >= 0 {
		cliutil.RequireProb(tool, "remote-pay", *remotePay)
	}
	cliutil.RequirePositiveFloat(tool, "z", *z)
	if *xvalMode && *tortureMode {
		cliutil.Fail(tool, "-xval and -torture are mutually exclusive")
	}
	ccMode, err := db.ParseCCMode(*ccFlag)
	if err != nil {
		cliutil.Fail(tool, err.Error())
	}

	stopProf := cliutil.StartProfiles(tool, *cpuProf, *memProf)
	stopContention := cliutil.StartContentionProfiles(tool, *mutexProf, *blockProf)

	switch {
	case *tortureMode:
		cliutil.RequirePositive(tool, "seeds", int64(*seeds))
		cliutil.RequirePositive(tool, "schedules", int64(*schedules))
		runTorture(*shards, *wh, *txns, *workers, *seed, *seeds, *schedules,
			*remoteStock, *remotePay, ccMode, *verbose)
	case *xvalMode:
		runXval(*shards, *wh, *txns, *workers, *seed, *remoteStock, *remotePay, *z, *jsonOut)
	default:
		runBench(*shards, *wh, *txns, *workers, *seed, *remoteStock, *remotePay, ccMode)
	}
	// Failure paths exit(1) above without writing profiles — a failed
	// run's contention profile is not the one being measured.
	stopProf()
	stopContention()
}

func runBench(shards, wh, txns, workers int, seed uint64, remoteStock, remotePay float64, cc db.CCMode) {
	c, err := shard.Open(shard.Config{
		Shards:             shards,
		WarehousesPerShard: wh,
		PageSize:           4096,
		BufferPages:        4096,
		Seed:               seed,
		LockWaitTimeout:    50 * time.Millisecond,
		CC:                 cc,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcc-shard:", err)
		os.Exit(1)
	}
	st, err := shard.Run(c, seed, tpcc.DefaultMix(), txns, workers,
		db.DefaultRetryPolicy(), remoteStock, remotePay)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcc-shard:", err)
		os.Exit(1)
	}
	if n := c.Quiesce(time.Second); n > 0 {
		fmt.Fprintf(os.Stderr, "tpcc-shard: %d participant commits still pending\n", n)
		os.Exit(1)
	}
	if err := c.CheckAll(); err != nil {
		fmt.Fprintln(os.Stderr, "tpcc-shard: consistency:", err)
		os.Exit(1)
	}
	acked := st.Acknowledged()
	fmt.Printf("cluster: %d shards x %d warehouses, %d txns acked in %v (%.0f txn/s), %d retries, %d sheds\n",
		shards, wh, acked, st.Elapsed.Round(time.Millisecond),
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
}

func runXval(shards, wh, txns, workers int, seed uint64, remoteStock, remotePay, z float64, jsonOut bool) {
	cfg := xval.DefaultDistGateConfig()
	cfg.Shards = shards
	cfg.WarehousesPerShard = wh
	cfg.Txns = txns
	cfg.Workers = workers
	cfg.Seed = seed
	cfg.RemoteStockProb = remoteStock
	cfg.RemotePaymentProb = remotePay
	cfg.Z = z
	res, err := xval.RunDistGate(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcc-shard:", err)
		os.Exit(1)
	}
	if jsonOut {
		err = res.WriteJSON(os.Stdout)
	} else {
		err = res.WriteTSV(os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcc-shard:", err)
		os.Exit(1)
	}
	if gateErr := res.Err(); gateErr != nil {
		fmt.Fprintln(os.Stderr, "tpcc-shard:", gateErr)
		os.Exit(1)
	}
}

func runTorture(shards, wh, txns, workers int, seed uint64, seeds, schedules int,
	remoteStock, remotePay float64, cc db.CCMode, verbose bool) {
	cfg := shard.DefaultTortureConfig()
	cfg.CC = cc
	cfg.BaseSeed = seed
	cfg.Seeds = seeds
	cfg.Schedules = schedules
	cfg.Txns = txns
	cfg.Workers = workers
	cfg.Shards = shards
	cfg.WarehousesPerShard = wh
	if remoteStock >= 0 {
		cfg.RemoteStockProb = remoteStock
	}
	if remotePay >= 0 {
		cfg.RemotePaymentProb = remotePay
	}
	start := time.Now()
	rep, err := shard.Torture(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcc-shard:", err)
		os.Exit(1)
	}
	if verbose {
		for _, s := range rep.Schedules {
			fmt.Printf("seed=%d schedule=%d kill=%s@shard%d(coord=%v) fired=%v acked=%d sheds=%d in-doubt=%d violations=%d\n",
				s.Seed, s.Schedule, s.Plan.Point, s.Plan.Victim, s.Plan.CoordinatorVictim,
				s.Fired, s.Acked, s.Sheds, s.InDoubt, len(s.Violations))
		}
	}
	fmt.Println(rep.Summary())
	fmt.Printf("elapsed: %v\n", time.Since(start).Round(time.Millisecond))
	if !rep.OK() {
		for _, v := range rep.Violations {
			fmt.Fprintln(os.Stderr, "violation:", v)
		}
		os.Exit(1)
	}
}
