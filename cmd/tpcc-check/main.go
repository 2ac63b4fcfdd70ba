// Command tpcc-check runs the gates that check the engine against the
// model and against its own invariants, each at the one configuration CI
// runs it at, and exits 1 as soon as one fails:
//
//	xval           the engine's buffer reference stream replayed through the
//	               LRU stack simulation (hit/miss counts must match bit for
//	               bit), then engine vs synthetic simulation vs Che's closed
//	               form within documented tolerances (internal/xval)
//	shard-xval     Appendix A: a 3-shard cluster's remote-call rates, counted
//	               at the router, vs model.DistConfig.Expect() within 5
//	               standard errors
//	torture        the crash campaign (shard.Torture) on one shard —
//	               transient I/O errors, bit flips, device crashes at any
//	               I/O, power loss, recovery — under 2pl, mvcc and ssi in turn
//	shard-torture  the same campaign on three shards, where the drawn 2PC
//	               kills also fire and a shard is held down once per seed;
//	               a mode in which no participant kill left a branch in
//	               doubt fails
//	commit         one force per writing commit vs group commit at 1/2/4/8
//	               workers on a 1 ms log device, and read-only commits that
//	               must force nothing under 2pl, mvcc and ssi
//	cc             2pl vs mvcc vs ssi at 1/2/4/8 workers, three same-seed
//	               runs each: identical state at one worker, snapshot
//	               throughput within 10 % of 2pl's
//
// Usage:
//
//	tpcc-check [flags] [gate ...]
//	tpcc-check                                      # every gate, in CI order
//	tpcc-check -out results-xval xval               # also writes xval.tsv and xval.json
//	tpcc-check -seeds 5 -schedules 10 -v torture    # the full crash campaign
//	tpcc-check -seeds 5 -schedules 10 shard-torture # the same on three shards
//	tpcc-check -txns 4000 -out . commit             # re-records BENCH_commit.json
//	tpcc-check -txns 8000 -out . cc                 # re-records BENCH_cc.json
//
// -seeds, -schedules and -txns size the crash campaign, and -txns the
// commit and cc cells; left at 0, each gate runs its CI size (the
// campaign's shard.DefaultTortureConfig: torture 3 x 6 x 400,
// shard-torture 2 x 4 x 200; commit 1000 and cc 4000 transactions a
// cell). With -out, commit and cc write the cells they judged, and
// passed, as BENCH_commit.json and BENCH_cc.json.
// An unknown or repeated gate name exits 2 and lists the valid names.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/shard"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
	"tpccmodel/internal/xval"
)

const tool = "tpcc-check"

// gateSeed seeds the commit and cc gates' databases and terminals.
const gateSeed = 1993

// batched is group commit as every grouped gate runs it. Any MaxBatch
// above 1 switches batching on; the value bounds nothing.
var batched = wal.GroupConfig{MaxBatch: 64}

// options are the flags every gate sees, plus where it writes.
type options struct {
	out                    string
	verbose                bool
	seeds, schedules, txns uint
	stdout, stderr         io.Writer
}

// size returns a campaign size flag when it is set and the gate's CI
// size ci otherwise.
func size(flagged uint, ci int) int {
	if flagged > 0 {
		return int(flagged)
	}
	return ci
}

// gate is one named check; run returns an error when it fails.
type gate struct {
	name string
	run  func(options) error
}

// gates lists every gate in CI order.
func gates() []gate {
	return []gate{
		{"xval", runXval},
		{"shard-xval", runShardXval},
		{"torture", func(o options) error { return runTorture(o, 1) }},
		{"shard-torture", func(o options) error { return runTorture(o, 3) }},
		{"commit", runCommit},
		{"cc", runCC},
	}
}

func gateNames(table []gate) []string {
	names := make([]string, len(table))
	for i, g := range table {
		names[i] = g.name
	}
	return names
}

func main() { os.Exit(run(gates(), os.Args[1:], os.Stdout, os.Stderr)) }

// run parses args, runs the selected gates of table in table order and
// returns the exit status: 0 when every gate passed, 1 when one failed
// (the gates after it do not run), 2 for a bad invocation.
func run(table []gate, args []string, stdout, stderr io.Writer) int {
	o := options{stdout: stdout, stderr: stderr}
	fs := flag.NewFlagSet(tool, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.out, "out", "", "directory for xval's xval.tsv and xval.json (empty = TSV on stdout) and for commit's and cc's BENCH_commit.json and BENCH_cc.json (empty = none)")
	fs.BoolVar(&o.verbose, "v", false, "torture gates: print one line per schedule")
	fs.UintVar(&o.seeds, "seeds", 0, "torture gates: independent seeds (0 = the gate's CI size)")
	fs.UintVar(&o.schedules, "schedules", 0, "torture gates: crash schedules per seed (0 = the gate's CI size)")
	fs.UintVar(&o.txns, "txns", 0, "torture gates: transactions attempted per schedule; commit, cc: transactions per cell (0 = the gate's CI size)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: %s [flags] [gate ...]\n\ngates (default all, in this order): %s\n\nflags:\n",
			tool, strings.Join(gateNames(table), " "))
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sel, err := cliutil.Select(table, fs.Args(), "gate", func(g gate) string { return g.name })
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", tool, err)
		return 2
	}
	for _, g := range sel {
		start := time.Now()
		if err := g.run(o); err != nil {
			fmt.Fprintf(stderr, "%s: %s: FAIL: %v\n", tool, g.name, err)
			return 1
		}
		fmt.Fprintf(stderr, "%s: %s: ok in %v\n", tool, g.name, time.Since(start).Round(time.Millisecond))
	}
	return 0
}

// runXval is the engine ↔ model gate at xval.DefaultConfig: exact replay
// plus both tolerances.
func runXval(o options) error {
	res, err := xval.Run(xval.DefaultConfig())
	if err != nil {
		return err
	}
	fmt.Fprintf(o.stderr, "xval: %d measured accesses\n", res.MeasuredAccesses)
	if o.out == "" {
		if err := res.WriteTSV(o.stdout); err != nil {
			return err
		}
	} else {
		if err := writeXvalReports(o.out, res); err != nil {
			return err
		}
		fmt.Fprintf(o.stderr, "xval: wrote %s and %s\n",
			filepath.Join(o.out, "xval.tsv"), filepath.Join(o.out, "xval.json"))
	}
	return res.Err()
}

// writeReport writes rep as indented JSON to the file name under -out;
// without -out it writes nothing.
func writeReport(o options, name string, rep any) error {
	if o.out == "" {
		return nil
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.out, name)
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(o.stderr, "wrote %s\n", path)
	return nil
}

// measure loads d at seed, warms it up with warmup transactions, calls
// ready and measures txns transactions of the default mix at workers
// under the terminal's retry policy.
func measure(d *db.DB, seed uint64, txns, warmup, workers int, ready func()) (db.RunStats, error) {
	if err := d.Load(seed); err != nil {
		return db.RunStats{}, err
	}
	mix := tpcc.DefaultMix()
	if warmup > 0 {
		if err := db.RunConcurrent(d, seed+1, mix, warmup, workers); err != nil {
			return db.RunStats{}, err
		}
	}
	// Collect the previous cell's garbage (a whole discarded buffer pool)
	// so no inherited GC cycle lands mid-measurement.
	runtime.GC()
	ready()
	return db.RunConcurrentPolicy(d, seed+2, mix, txns, workers)
}

func writeXvalReports(dir string, res *xval.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range []struct {
		name  string
		write func(io.Writer) error
	}{{"xval.tsv", res.WriteTSV}, {"xval.json", res.WriteJSON}} {
		f, err := os.Create(filepath.Join(dir, r.name))
		if err != nil {
			return err
		}
		if err := r.write(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// runShardXval is the Appendix A gate at xval.DefaultDistGateConfig:
// 3 shards, 4000 transactions, remote probabilities raised to 0.1 (stock)
// and 0.3 (payment) for statistical power.
func runShardXval(o options) error {
	res, err := xval.RunDistGate(xval.DefaultDistGateConfig())
	if err != nil {
		return err
	}
	if err := res.WriteTSV(o.stdout); err != nil {
		return err
	}
	return res.Err()
}

// runTorture runs the crash campaign at its CI size on the given number of
// shards (shard.DefaultTortureConfig), once under each concurrency-control
// mode. On a cluster a mode must also have surfaced an in-doubt branch: a
// campaign whose participant kills left none tested no in-doubt recovery;
// and a mode that drew during-resolve kills must have fired one, or the
// resolution window went untested.
func runTorture(o options, shards int) error {
	for _, cc := range ccModes {
		cfg := shard.DefaultTortureConfig(shards)
		cfg.CC = cc
		cfg.Seeds = size(o.seeds, cfg.Seeds)
		cfg.Schedules = size(o.schedules, cfg.Schedules)
		cfg.Txns = size(o.txns, cfg.Txns)
		start := time.Now()
		rep, err := shard.Torture(cfg)
		if err != nil {
			if rep != nil {
				printViolations(o.stderr, rep.Violations)
			}
			return err
		}
		if o.verbose {
			for _, s := range rep.Schedules {
				crash := "quiescent"
				if s.MidRunCrash {
					crash = "mid-run"
				}
				fmt.Fprintf(o.stdout, "seed=%d schedule=%d crash=%s kill=%s@shard%d(coord=%v) fired=%v acked=%d retries=%d sheds=%d in-doubt=%d log-scanned=%drec/%dB log-truncated=%dB rows-applied=%d violations=%d\n",
					s.Seed, s.Schedule, crash, s.Plan.Point, s.Plan.Victim, s.Plan.CoordinatorVictim,
					s.Fired, s.Acked, s.Retries, s.Sheds, s.InDoubt,
					s.Recovery.Records, s.Recovery.Bytes, s.Recovery.TruncatedBytes,
					s.Recovery.Applied, len(s.Violations))
			}
		}
		fmt.Fprintln(o.stdout, rep.Summary())
		fmt.Fprintf(o.stdout, "elapsed: %v\n", time.Since(start).Round(time.Millisecond))
		if !rep.OK() {
			printViolations(o.stderr, rep.Violations)
			return fmt.Errorf("cc=%s: %d invariant violations", cc, len(rep.Violations))
		}
		if shards > 1 && rep.InDoubt == 0 {
			return fmt.Errorf("cc=%s: no schedule surfaced an in-doubt branch", cc)
		}
		if p := shard.KillDuringResolve; shards > 1 && rep.KillsDrawn[p] > 0 && rep.KillsFired[p] == 0 {
			return fmt.Errorf("cc=%s: none of %d %s kills fired", cc, rep.KillsDrawn[p], p)
		}
	}
	return nil
}

func printViolations(w io.Writer, violations []string) {
	for _, v := range violations {
		fmt.Fprintln(w, "violation:", v)
	}
}
