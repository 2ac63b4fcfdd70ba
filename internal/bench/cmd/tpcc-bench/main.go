// Command tpcc-bench is the repository's engine benchmark: four closed-loop
// TPC-C workloads against internal/engine/db, each measured untraced for the
// end-to-end metrics and traced for the per-layer ones. See ../../README.md.
//
// With -workload and -trace both given (and no -aa) it makes that one pass
// in this process and prints the result object as the last line of standard
// output. Otherwise it runs every selected pass as a child process of its
// own, -aa times over, and with -aa above 1 reports how far the repeats
// disagree.
package main

import (
	"flag"
	"fmt"
	"os"

	"tpccmodel/internal/bench"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run (default: all four)")
		seed     = flag.Uint64("seed", bench.DefaultSeed, "seed of the generated inputs")
		seconds  = flag.Int("seconds", bench.DefaultSeconds, "nominal length of the measured window; it sets a transaction count, see README")
		trace    = flag.Int("trace", -1, "0: untraced pass (end-to-end metrics), 1: traced pass (per-layer metrics); default: both")
		traceOut = flag.String("trace-out", "", "with -trace 1: write the spans to this file as JSON lines")
		aa       = flag.Int("aa", 1, "run the selected passes this many times; above 1, print min/median/max and spread/bound per metric and exit 1 if a spread exceeds its bound")
		varySeed = flag.Bool("vary-seed", false, "with -aa: give each repeat its own seed, as the acceptance check does, instead of checking that counts repeat exactly")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it, and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *manifest {
		b, err := bench.Manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if *seconds < 1 || *seconds > 60 {
		fatal(fmt.Errorf("-seconds %d outside 1..60", *seconds))
	}
	if *trace < -1 || *trace > 1 {
		fatal(fmt.Errorf("-trace %d is neither 0 nor 1", *trace))
	}
	workloads := bench.Workloads
	if *workload != "" {
		wl, err := bench.WorkloadByName(*workload)
		if err != nil {
			fatal(err)
		}
		workloads = []bench.Workload{wl}
	}

	if *workload != "" && *trace >= 0 && *aa <= 1 {
		ok, err := onePass(workloads[0], *seed, *seconds, *trace == 1, *traceOut)
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	traces := []int{0, 1}
	if *trace >= 0 {
		traces = []int{*trace}
	}
	ok, err := repeat(workloads, traces, *seed, *seconds, *aa, *varySeed)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tpcc-bench:", err)
	os.Exit(2)
}

// onePass runs one pass in this process: the table goes to standard error,
// the result object to the last line of standard output. It reports whether
// the outputs were correct.
func onePass(wl bench.Workload, seed uint64, seconds int, traced bool, traceOut string) (bool, error) {
	opts := bench.Options{Seed: seed, Measured: wl.Measured(seconds), Trace: traced, Setups: 3}
	list, title := bench.EndToEnd, "untraced pass"
	var spans *os.File
	if traced {
		// The traced pass does not report setup_s, so it sets up once.
		list, title, opts.Setups = bench.PerLayer, "traced pass", 1
		if traceOut != "" {
			var err error
			if spans, err = os.Create(traceOut); err != nil {
				return false, err
			}
			defer spans.Close()
			opts.TraceOut = spans
		}
	}
	r, err := bench.Run(wl, opts)
	if err != nil {
		return false, err
	}
	if spans != nil {
		if err := spans.Close(); err != nil {
			return false, err
		}
	}
	r.WriteTable(os.Stderr, title, list)
	if !traced {
		line, err := r.AuditLine()
		if err != nil {
			return false, err
		}
		fmt.Printf("%s\n", line)
	}
	line, err := r.Line(list)
	if err != nil {
		return false, err
	}
	fmt.Printf("%s\n", line)
	return r.Correct(), nil
}
