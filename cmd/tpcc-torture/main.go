// Command tpcc-torture crash-tortures the storage engine: for each seed
// it loads a TPC-C database over a fault-injecting device, then runs
// repeated schedules of concurrent transactions with transient I/O
// errors, silent bit flips, randomly timed device crashes, power loss,
// and recovery — asserting after every schedule that the TPC-C
// consistency conditions hold, every acknowledged commit survived, and
// every injected corruption was detected by the page checksums.
//
// Usage:
//
//	tpcc-torture -seeds 5 -schedules 10 -txns 400 -workers 4
//	tpcc-torture -seeds 2 -schedules 5 -flip 0.01 -v
//	tpcc-torture -cc ssi -seeds 2 -schedules 5
//
// The process exits 1 if any schedule violated an invariant.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/fault"
	"tpccmodel/internal/engine/wal"
)

func main() {
	def := fault.DefaultTortureConfig()
	var (
		seeds       = flag.Int("seeds", def.Seeds, "independent database seeds")
		schedules   = flag.Int("schedules", def.Schedules, "crash schedules per seed")
		txns        = flag.Int("txns", def.Txns, "transactions attempted per schedule")
		workers     = flag.Int("workers", def.Workers, "concurrent workers")
		wh          = flag.Int("warehouses", def.Warehouses, "warehouse count")
		pages       = flag.Int("buffer-pages", def.BufferPages, "buffer pool capacity in pages")
		pageSize    = flag.Int("page-size", def.PageSize, "page size in bytes")
		baseSeed    = flag.Uint64("seed", def.BaseSeed, "base random seed")
		readErr     = flag.Float64("read-err", def.Faults.ReadErrProb, "transient read error probability")
		writeErr    = flag.Float64("write-err", def.Faults.WriteErrProb, "transient write error probability")
		forceErr    = flag.Float64("force-err", def.Faults.ForceErrProb, "log force error probability")
		flip        = flag.Float64("flip", def.Faults.BitFlipProb, "silent bit-flip probability per page write")
		ccFlag      = flag.String("cc", "2pl", "concurrency control mode: 2pl, mvcc or ssi")
		groupCommit = flag.Bool("group-commit", true, "share log forces: a force covers everything pre-committed while the previous one ran")
		gcBatch     = flag.Int("gc-max-batch", 16, "wal.GroupConfig.MaxBatch; any value above 1 enables batching")
		verbose     = flag.Bool("v", false, "print per-schedule results")
	)
	flag.Parse()

	const tool = "tpcc-torture"
	cliutil.RequirePositive(tool, "seeds", int64(*seeds))
	cliutil.RequirePositive(tool, "schedules", int64(*schedules))
	cliutil.RequirePositive(tool, "txns", int64(*txns))
	cliutil.RequirePositive(tool, "workers", int64(*workers))
	cliutil.RequirePositive(tool, "warehouses", int64(*wh))
	cliutil.RequirePositive(tool, "buffer-pages", int64(*pages))
	cliutil.RequirePositive(tool, "page-size", int64(*pageSize))
	cliutil.RequireProb(tool, "read-err", *readErr)
	cliutil.RequireProb(tool, "write-err", *writeErr)
	cliutil.RequireProb(tool, "force-err", *forceErr)
	cliutil.RequireProb(tool, "flip", *flip)

	ccMode, err := db.ParseCCMode(*ccFlag)
	if err != nil {
		cliutil.Fail(tool, err.Error())
	}

	cfg := def
	cfg.CC = ccMode
	cfg.Seeds = *seeds
	cfg.Schedules = *schedules
	cfg.Txns = *txns
	cfg.Workers = *workers
	cfg.Warehouses = *wh
	cfg.BufferPages = *pages
	cfg.PageSize = *pageSize
	cfg.BaseSeed = *baseSeed
	cfg.Faults = fault.Config{
		ReadErrProb:  *readErr,
		WriteErrProb: *writeErr,
		ForceErrProb: *forceErr,
		BitFlipProb:  *flip,
	}
	if *groupCommit {
		cliutil.RequirePositive(tool, "gc-max-batch", int64(*gcBatch))
		cfg.GroupCommit = wal.GroupConfig{MaxBatch: *gcBatch}
	}

	start := time.Now()
	rep, err := fault.Torture(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tpcc-torture:", err)
		if rep != nil {
			for _, v := range rep.Violations {
				fmt.Fprintln(os.Stderr, "  violation:", v)
			}
		}
		os.Exit(1)
	}
	if *verbose {
		for _, s := range rep.Schedules {
			kind := "quiescent"
			if s.MidRunCrash {
				kind = "mid-run"
			}
			fmt.Printf("seed=%d schedule=%d crash=%s acked=%d retries=%d sheds=%d log-scanned=%drec/%dB log-truncated=%dB rows-applied=%d violations=%d\n",
				s.Seed, s.Schedule, kind, s.Acked, s.Retries, s.Sheds,
				s.Recovery.Records, s.Recovery.Bytes, s.Recovery.TruncatedBytes,
				s.Recovery.Applied, len(s.Violations))
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
