// Command tpcc-repro regenerates the paper's evaluation — every table and
// figure, or only the ones named — in one process, sharing the expensive
// buffer simulations across figures, and writes one TSV per experiment into
// an output directory.
//
// Experiments are computed by a worker pool (-workers) and written in a
// fixed order afterwards, so each emitted file is byte-identical for any
// worker count and any selection. With -bench-sweep it instead times the
// replacement-policy ablation grid at 1/2/4/8 workers and writes a JSON
// report.
//
// Usage:
//
//	tpcc-repro [flags] [experiment ...]
//	tpcc-repro -scale full -out results/        # paper scale (minutes)
//	tpcc-repro -scale reduced -out results-reduced/
//	tpcc-repro -out figs fig5 table4            # only fig5.tsv and table4.tsv
//	tpcc-repro -bench-sweep BENCH_sweep.json
//
// An experiment name is the stem of the TSV it writes (fig10 also writes
// fig10-minima.tsv); no names means every experiment.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/experiments"
	"tpccmodel/internal/model"
	"tpccmodel/internal/parallel"
	"tpccmodel/internal/sim"
)

// job computes one experiment. Each series it returns is written to
// <series name>.tsv; the first one's name is the job's (fig10 also yields
// its minima summary).
type job struct {
	name string
	// warm, when set, computes shared state that run reads — the study's
	// two buffer simulations — before the pool starts any job, so the jobs
	// needing it do not queue behind it. It is memoized, so jobs share one.
	warm func() error
	run  func() ([]experiments.Series, error)
}

func one(s experiments.Series, err error) ([]experiments.Series, error) {
	return []experiments.Series{s}, err
}

// jobTable lists every experiment at the given scale, in output order.
func jobTable(opts experiments.Options) []job {
	sys := model.DefaultSystemParams()
	cost := model.DefaultCostModel()
	st := experiments.NewStudy(opts)

	ablOpts := opts
	// The direct simulation re-runs per policy per packing; cap its cost at
	// any scale.
	if ablOpts.BatchTxns > 20000 {
		ablOpts.Batches, ablOpts.BatchTxns, ablOpts.WarmupTxns = 5, 20000, 20000
	}
	pageOpts := ablOpts
	pageOpts.BufferMB = []float64{13, 26, 52, 104}
	nodes := []int{1, 2, 5, 10, 20, 30}
	curves := func() error { return st.Prefetch(sim.PackSequential, sim.PackOptimized) }

	return []job{
		{"table1", nil, func() ([]experiments.Series, error) {
			return one(experiments.Table1(opts.Warehouses, opts.PageSize), nil)
		}},
		{"fig3", nil, func() ([]experiments.Series, error) { return one(experiments.Fig3(10), nil) }},
		{"fig4", nil, func() ([]experiments.Series, error) { return one(experiments.Fig4(10), nil) }},
		{"fig5", nil, func() ([]experiments.Series, error) { return one(experiments.Fig5(200), nil) }},
		{"fig6", nil, func() ([]experiments.Series, error) { return one(experiments.Fig6(1), nil) }},
		{"fig7", nil, func() ([]experiments.Series, error) { return one(experiments.Fig7(200), nil) }},
		{"skew-headlines", nil, func() ([]experiments.Series, error) { return one(experiments.SkewHeadlines(), nil) }},
		{"tables6-7", nil, func() ([]experiments.Series, error) {
			return one(experiments.Tables6and7([]int{2, 5, 10, 20, 30}), nil)
		}},
		{"table3", nil, func() ([]experiments.Series, error) { return one(experiments.Table3(opts)) }},
		{"fig8", curves, func() ([]experiments.Series, error) { return one(experiments.Fig8(st)) }},
		{"analytic-vs-sim", curves, func() ([]experiments.Series, error) { return one(experiments.AnalyticVsSimulated(st)) }},
		{"fig9", curves, func() ([]experiments.Series, error) { return one(experiments.Fig9(st, sys)) }},
		{"fig10", curves, func() ([]experiments.Series, error) {
			fig10, err := experiments.Fig10(st, sys, cost)
			return []experiments.Series{fig10, experiments.Fig10Minima(fig10)}, err
		}},
		{"table4", curves, func() ([]experiments.Series, error) { return one(experiments.Table4(st, sys, 52)) }},
		{"fig11", curves, func() ([]experiments.Series, error) { return one(experiments.Fig11(st, sys, 102, nodes)) }},
		{"fig12", curves, func() ([]experiments.Series, error) {
			return one(experiments.Fig12(st, sys, 102, nodes, []float64{0.01, 0.05, 0.1, 0.5, 1.0}))
		}},
		{"policy-ablation", nil, func() ([]experiments.Series, error) {
			return one(experiments.PolicyAblation(ablOpts, 52, []string{"lru", "fifo", "clock", "lfu", "2q", "slru"}))
		}},
		{"optimality-gap", nil, func() ([]experiments.Series, error) {
			return one(experiments.OptimalityGap(ablOpts, []float64{13, 26, 52, 104}, 20000))
		}},
		{"mix-sensitivity", nil, func() ([]experiments.Series, error) { return one(experiments.MixSensitivity(ablOpts, 52)) }},
		{"response-validation", curves, func() ([]experiments.Series, error) {
			return one(experiments.ResponseValidation(st, sys, len(opts.BufferMB)/2, 8, []float64{0.2, 0.4, 0.6, 0.8, 0.9}))
		}},
		{"page-size", nil, func() ([]experiments.Series, error) { return one(experiments.PageSizeStudy(pageOpts)) }},
		{"appendix-a-validation", nil, func() ([]experiments.Series, error) {
			return one(experiments.AppendixAValidation(opts.Warehouses, 3, 300_000, opts.Seed))
		}},
	}
}

// selectJobs returns the named jobs in table order, or the whole table when
// no name is given. An unknown or repeated name is an error that lists the
// valid names.
func selectJobs(table []job, names []string) ([]job, error) {
	return cliutil.Select(table, names, "experiment", func(j job) string { return j.name })
}

func jobNames(table []job) []string {
	names := make([]string, len(table))
	for i, j := range table {
		names[i] = j.name
	}
	return names
}

// reproduce computes jobs on up to workers goroutines and writes their TSVs
// into outDir in job order. Results land by job index, so neither the
// worker count nor completion order can affect them.
func reproduce(jobs []job, workers int, outDir string, log io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	start := time.Now()
	for _, j := range jobs {
		if j.warm != nil {
			if err := j.warm(); err != nil {
				return fmt.Errorf("%s: %w", j.name, err)
			}
		}
	}
	prog := parallel.NewProgress("experiments", len(jobs), log)
	results, err := parallel.Map(workers, len(jobs), func(i int) ([]experiments.Series, error) {
		out, err := jobs[i].run()
		prog.Done()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", jobs[i].name, err)
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	for _, res := range results {
		for _, s := range res {
			path := filepath.Join(outDir, s.Name+".tsv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := s.WriteTSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(log, "wrote %s\n", path)
		}
	}
	fmt.Fprintf(log, "%d experiments complete in %v\n", len(jobs), time.Since(start).Round(time.Millisecond))
	return nil
}

func main() {
	var (
		scale      = flag.String("scale", "reduced", "full (paper: 20 warehouses, 30x100K txns) or reduced")
		outDir     = flag.String("out", "results", "output directory for TSV files")
		workers    = flag.Int("workers", 0, "parallel sweep workers (0 = one per CPU)")
		benchSweep = flag.String("bench-sweep", "", "instead of reproducing the paper, benchmark the ablation sweep at 1/2/4/8 workers and write this JSON report")
	)
	cpuprofile, memprofile := cliutil.ProfileFlags(flag.CommandLine)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: tpcc-repro [flags] [experiment ...]\n\nexperiments (default all): %s\n\nflags:\n",
			strings.Join(jobNames(jobTable(experiments.Reduced())), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	const tool = "tpcc-repro"
	w := cliutil.Workers(tool, *workers)
	stopProfiles := cliutil.StartProfiles(tool, *cpuprofile, *memprofile)
	defer stopProfiles()

	if *benchSweep != "" {
		if flag.NArg() > 0 {
			cliutil.Fail(tool, "-bench-sweep takes no experiment names")
		}
		if err := runBenchSweep(*benchSweep); err != nil {
			fatal(err)
		}
		return
	}

	var opts experiments.Options
	switch *scale {
	case "full":
		opts = experiments.FullScale()
	case "reduced":
		opts = experiments.Reduced()
	default:
		cliutil.Fail(tool, "unknown scale %q (want full or reduced)", *scale)
	}
	opts.Workers = w
	jobs, err := selectJobs(jobTable(opts), flag.Args())
	if err != nil {
		cliutil.Fail(tool, "%v", err)
	}
	fmt.Fprintf(os.Stderr, "[%s] %d experiments (%d warehouses, %d x %d txns, %d workers)...\n",
		time.Now().Format("15:04:05"), len(jobs), opts.Warehouses, opts.Batches, opts.BatchTxns, w)
	if err := reproduce(jobs, w, *outDir, os.Stderr); err != nil {
		fatal(err)
	}
}

// runBenchSweep times the replacement-policy ablation grid (6 policies x 2
// packings at reduced scale) at 1, 2, 4, and 8 workers and writes a JSON
// report. The reference trace is recorded once untimed so every run measures
// pure sweep time, and each run's TSV bytes are compared against the serial
// run to document the determinism contract.
func runBenchSweep(path string) error {
	opts := experiments.Reduced()
	policies := []string{"lru", "fifo", "clock", "lfu", "2q", "slru"}

	type benchRun struct {
		Workers   int     `json:"workers"`
		Seconds   float64 `json:"seconds"`
		Speedup   float64 `json:"speedup_vs_serial"`
		Identical bool    `json:"output_identical_to_serial"`
	}
	report := struct {
		cliutil.Hardware
		Scale     string     `json:"scale"`
		GridCells int        `json:"grid_cells"`
		Runs      []benchRun `json:"runs"`
	}{
		Hardware:  cliutil.HardwareInfo(),
		Scale:     "reduced",
		GridCells: len(policies) * 2,
	}

	run := func(w int) (time.Duration, []byte, error) {
		o := opts
		o.Workers = w
		start := time.Now()
		s, err := experiments.PolicyAblation(o, 52, policies)
		if err != nil {
			return 0, nil, err
		}
		elapsed := time.Since(start)
		var buf bytes.Buffer
		if err := s.WriteTSV(&buf); err != nil {
			return 0, nil, err
		}
		return elapsed, buf.Bytes(), nil
	}

	// Untimed warmup records the shared reference trace.
	fmt.Fprintf(os.Stderr, "bench-sweep: warming shared trace (%d cores)...\n", report.Cores)
	if _, _, err := run(1); err != nil {
		return err
	}

	var serial []byte
	for _, w := range []int{1, 2, 4, 8} {
		elapsed, out, err := run(w)
		if err != nil {
			return err
		}
		if w == 1 {
			serial = out
		}
		r := benchRun{
			Workers:   w,
			Seconds:   elapsed.Seconds(),
			Identical: bytes.Equal(out, serial),
		}
		if len(report.Runs) > 0 {
			r.Speedup = report.Runs[0].Seconds / r.Seconds
		} else {
			r.Speedup = 1
		}
		report.Runs = append(report.Runs, r)
		fmt.Fprintf(os.Stderr, "bench-sweep: workers=%d %.3fs speedup=%.2fx identical=%v\n",
			w, r.Seconds, r.Speedup, r.Identical)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "tpcc-repro: %v\n", err)
	os.Exit(1)
}
