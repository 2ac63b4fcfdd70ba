// Command tpcc-engine runs the executable TPC-C engine — the system the
// paper models but never built — and reports what it measured: throughput
// and per-type response time, the engine counters the paper's §5 prices a
// transaction from (log forces, locks, aborts) and per-relation buffer
// miss rates. Commits release their locks at pre-commit and then wait for
// the log; group commit is on by default, so a force covers every record
// buffered while the previous one was at the device and forces per commit
// drop below 1 under concurrency (disable with -group-commit=false for the
// model's one log I/O per committing writer).
//
// With -shards N > 1 the engine runs as a warehouse-sharded cluster: N
// instances of -warehouses warehouses each under presumed-abort two-phase
// commit, driven by the same terminal. Only the open differs: every size
// gets the same warmup, measured run, C1–C4 check and report, and a
// cluster adds per-shard commit counts and the Appendix A remote-call
// rates measured at the router.
//
// Usage:
//
//	tpcc-engine -warehouses 1 -buffer-pages 8192 -txns 20000 -workers 4
//	tpcc-engine -shards 4 -txns 5000
//	tpcc-engine -cc mvcc -txns 20000 -workers 4
//	tpcc-engine -cc ssi -txns 20000 -workers 4
//
// The crash check (`tpcc-check torture`) and the gates that judge the
// engine's commit path and concurrency-control modes, with the
// BENCH_*.json files they write, are tpcc-check's.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/shard"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

const tool = "tpcc-engine"

// groupMaxBatch is the wal.GroupConfig.MaxBatch of every grouped run. Any
// value above 1 only switches batching on; it bounds nothing.
const groupMaxBatch = 64

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// settings are the run's flags, parsed and checked.
type settings struct {
	warehouses, bufferPages, shards, txns, warmup, workers int
	seed                                                   uint64
	cc                                                     db.CCMode
	group                                                  wal.GroupConfig
}

// run parses args, opens and loads the engine, warms it up, measures it,
// checks C1–C4 and writes the report to stdout. It returns the exit
// status: 0 on success, 1 when the run or a check fails, 2 for a bad
// invocation.
func run(args []string, stdout, stderr io.Writer) int {
	var s settings
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.IntVar(&s.warehouses, "warehouses", 1, "warehouse count (per shard with -shards)")
	fs.IntVar(&s.bufferPages, "buffer-pages", 8192, "buffer pool capacity in 4K pages (per shard with -shards)")
	fs.IntVar(&s.shards, "shards", 1, "run a warehouse-sharded cluster of this many nodes")
	fs.IntVar(&s.txns, "txns", 10000, "transactions to execute")
	fs.IntVar(&s.warmup, "warmup", 1000, "warmup transactions before measuring")
	fs.IntVar(&s.workers, "workers", 4, "concurrent workers")
	fs.Uint64Var(&s.seed, "seed", 1993, "random seed")
	groupCommit := fs.Bool("group-commit", true, "share log forces: a force covers everything pre-committed while the previous one ran")
	ccFlag := fs.String("cc", "2pl", "concurrency control mode: 2pl (shared read locks), mvcc (snapshot reads, first-committer-wins) or ssi (mvcc plus serializability validation)")
	cpuProf, memProf := cliutil.ProfileFlags(fs)
	mutexProf, blockProf := cliutil.ContentionProfileFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"warehouses", s.warehouses, 1}, {"buffer-pages", s.bufferPages, 1}, {"shards", s.shards, 1},
		{"txns", s.txns, 1}, {"warmup", s.warmup, 0}, {"workers", s.workers, 1},
	} {
		if f.v < f.min {
			fmt.Fprintf(stderr, "%s: -%s must be at least %d, got %d\n", tool, f.name, f.min, f.v)
			return 2
		}
	}
	var err error
	if s.cc, err = db.ParseCCMode(*ccFlag); err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return 2
	}
	if *groupCommit {
		s.group.MaxBatch = groupMaxBatch
	}

	stopProf := cliutil.StartProfiles(tool, *cpuProf, *memProf)
	stopContention := cliutil.StartContentionProfiles(tool, *mutexProf, *blockProf)
	fmt.Fprintf(stderr, "loading %d warehouse(s)...\n", s.shards*s.warehouses)
	start := time.Now()
	e, err := open(s)
	if err == nil {
		fmt.Fprintf(stderr, "loaded in %v\n", time.Since(start).Round(time.Millisecond))
		err = e.measure(stdout, s)
	}
	stopProf()
	stopContention()
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return 1
	}
	return 0
}

// engine is the opened system under test: one node, or a cluster of
// shards behind its router. Only the open differs; the run, the check and
// the report are the same at every size.
type engine struct {
	dbs     []*db.DB       // every node's instance
	cluster *shard.Cluster // nil for one node
}

// open opens and loads the system: at one shard a db.DB, whose terminal
// draws a remote warehouse uniformly over the others (clause 2.4.1.5);
// above that a shard.Cluster, whose router draws a node first, which at
// one node would not be the clause's draw.
func open(s settings) (*engine, error) {
	if s.shards == 1 {
		d, err := db.OpenWith(db.Config{
			Warehouses: s.warehouses, PageSize: 4096, BufferPages: s.bufferPages, CC: s.cc,
		}, db.Options{GroupCommit: s.group})
		if err != nil {
			return nil, err
		}
		if err := d.Load(s.seed); err != nil {
			return nil, err
		}
		return &engine{dbs: []*db.DB{d}}, d.VerifyCounts()
	}
	cfg := shard.DefaultConfig(s.shards)
	cfg.WarehousesPerShard = s.warehouses
	cfg.BufferPages = s.bufferPages
	cfg.Seed = s.seed
	cfg.CC = s.cc
	cfg.GroupCommit = s.group
	c, err := shard.Open(cfg)
	if err != nil {
		return nil, err
	}
	e := &engine{cluster: c}
	for _, sh := range c.Shards() {
		e.dbs = append(e.dbs, sh.DB)
	}
	return e, nil
}

// run executes txns transactions of the default mix, drawn from seed, at
// the benchmark's remote probabilities.
func (e *engine) run(seed uint64, txns, workers int) (db.RunStats, error) {
	if e.cluster != nil {
		return shard.Run(e.cluster, seed, tpcc.DefaultMix(), txns, workers, -1, -1)
	}
	return db.RunConcurrentPolicy(e.dbs[0], seed, tpcc.DefaultMix(), txns, workers)
}

// measure runs the warmup, zeroes what the engine counts, runs the
// measured transactions, checks C1–C4 on every node and writes the
// report.
func (e *engine) measure(w io.Writer, s settings) error {
	if s.warmup > 0 {
		if _, err := e.run(s.seed+1, s.warmup, s.workers); err != nil {
			return fmt.Errorf("warmup: %w", err)
		}
	}
	if e.cluster != nil {
		e.cluster.ResetStats()
	} else {
		e.dbs[0].ResetBufferStats()
	}
	st, err := e.run(s.seed+2, s.txns, s.workers)
	if err != nil {
		return err
	}
	if e.cluster != nil {
		err = e.cluster.CheckAll()
	} else {
		err = e.dbs[0].CheckConsistency()
	}
	if err != nil {
		return fmt.Errorf("consistency: %w", err)
	}

	mode := "per-commit force"
	if s.group.Enabled() {
		mode = "group commit"
	}
	fmt.Fprintf(w, "# engine run: %d txns, %d workers, %d-page pool, %s, %v, %s\n",
		s.txns, s.workers, s.bufferPages, s.cc, st.Elapsed.Round(time.Millisecond), mode)
	fmt.Fprintf(w, "txns_per_sec\t%.0f\n", float64(st.Acknowledged())/st.Elapsed.Seconds())
	st.WriteTable(w)
	fmt.Fprintf(w, "commits\t%d\naborts\t%d\nlog_forces\t%d\n", st.Commits, st.Aborts, st.LogForces)
	fmt.Fprintf(w, "forces_per_commit\t%.4f\n", st.ForcesPerCommit())
	fmt.Fprintf(w, "locks_acquired\t%d\nlock_waits\t%d\ndeadlocks\t%d\n", st.LockAcquires, st.LockWaits, st.Deadlocks)
	fmt.Fprintf(w, "retries\t%d\nsheds\t%d\n", st.Retries, st.Sheds)
	if s.cc != db.CC2PL {
		chains := 0
		for _, d := range e.dbs {
			chains += d.VersionChains()
		}
		fmt.Fprintf(w, "write_conflicts\t%d\nversion_chains\t%d\n", st.WriteConflicts, chains)
	}
	if s.cc == db.CCSSI {
		fmt.Fprintf(w, "ssi_aborts\t%d\n", st.SSIAborts)
	}
	fmt.Fprintf(w, "consistency_checks\tC1-C4\tok\n")

	fmt.Fprintf(w, "\nrelation\taccesses\tmiss_rate\n")
	var rels [core.NumRelations]bufmgr.Stats
	for _, d := range e.dbs {
		for rel, rs := range d.RelationStats() {
			rels[rel].Hits += rs.Hits
			rels[rel].Misses += rs.Misses
		}
	}
	for _, rel := range core.Relations() {
		fmt.Fprintf(w, "%s\t%d\t%.4f\n", rel, rels[rel].Accesses(), rels[rel].MissRate())
	}

	if e.cluster == nil {
		return nil
	}
	// Local plus distributed commits, summed over shards, is the
	// acknowledged count.
	fmt.Fprintf(w, "\ncluster\t%d shards x %d warehouses\n", s.shards, s.warehouses)
	fmt.Fprintf(w, "shard\tlocal\tdist\tparticipant\taborts\tsheds\n")
	for _, sh := range e.cluster.Shards() {
		ss := sh.Stats()
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\n", sh.ID,
			ss.LocalCommits, ss.DistCommits, ss.ParticipantCommits,
			ss.DistAborts, ss.Sheds+ss.DownSheds)
	}
	m := e.cluster.Xval()
	fmt.Fprintf(w, "measured: E[R_s]=%.4f RC_stock=%.4f L_stock=%.4f U_stock=%.4f RC_cust=%.4f U_cust=%.4f\n",
		m.ERs, m.RCStock, m.LStock, m.UStock, m.RCCust, m.UCust)
	return nil
}
