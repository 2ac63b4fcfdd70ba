// Package cliutil holds the flag-validation helpers shared by the cmd/
// binaries. Every tool rejects out-of-range flag values with a usage
// message and a non-zero exit instead of silently falling back to defaults.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"tpccmodel/internal/parallel"
)

// Hardware identifies the machine a benchmark report was measured on.
// Every BENCH_*.json embeds it so checked-in numbers carry their
// provenance: speedup figures from a 1-core container say so.
type Hardware struct {
	Cores      int    `json:"cores"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
}

// HardwareInfo snapshots the current machine.
func HardwareInfo() Hardware {
	return Hardware{
		Cores:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// Fail prints "tool: message", then the flag usage, and exits 2 (the
// conventional bad-invocation status).
func Fail(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	flag.Usage()
	os.Exit(2)
}

// die prints "tool: message" and exits 1: a profile that cannot be
// written fails the run; it is not a bad invocation.
func die(tool, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", tool, fmt.Sprintf(format, args...))
	os.Exit(1)
}

// Select returns the entries of table named in names, in table order, or
// the whole table when names is empty: the positional arguments of a
// dispatcher such as tpcc-repro or tpcc-check. An unknown or repeated name
// is an error that lists the valid names; what says what a name names.
func Select[T any](table []T, names []string, what string, name func(T) string) ([]T, error) {
	if len(names) == 0 {
		return table, nil
	}
	index := make(map[string]int, len(table))
	valid := make([]string, len(table))
	for i, e := range table {
		index[name(e)] = i
		valid[i] = name(e)
	}
	chosen := make([]bool, len(table))
	for _, n := range names {
		i, ok := index[n]
		if !ok || chosen[i] {
			problem := "unknown"
			if ok {
				problem = "repeated"
			}
			return nil, fmt.Errorf("%s %s %q (valid: %s)", problem, what, n, strings.Join(valid, " "))
		}
		chosen[i] = true
	}
	var sel []T
	for i, e := range table {
		if chosen[i] {
			sel = append(sel, e)
		}
	}
	return sel, nil
}

// Workers validates and resolves a -workers flag: 0 means one worker per
// CPU, negative values are rejected.
func Workers(tool string, v int) int {
	if v < 0 {
		Fail(tool, "-workers must be >= 0 (0 = one per CPU), got %d", v)
	}
	return parallel.Workers(v)
}

// ProfileFlags registers the standard -cpuprofile/-memprofile flags on fs;
// call before parsing. Kernel regressions in the hot simulation loops are
// then diagnosable with `go tool pprof` against tpcc-repro.
func ProfileFlags(fs *flag.FlagSet) (cpuprofile, memprofile *string) {
	cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = fs.String("memprofile", "", "write a heap profile to this file on exit")
	return cpuprofile, memprofile
}

// ContentionProfileFlags registers the -mutexprofile/-blockprofile flags
// on fs; call before parsing. These make lock contention directly
// observable: the mutex profile attributes delay to the mutexes that
// caused it, the block profile to the blocked call sites (channel waits
// included), so a change to a latch or a lock layout can be judged by
// where the contention went rather than by throughput alone.
func ContentionProfileFlags(fs *flag.FlagSet) (mutexprofile, blockprofile *string) {
	mutexprofile = fs.String("mutexprofile", "", "write a mutex-contention profile to this file on exit")
	blockprofile = fs.String("blockprofile", "", "write a blocking profile to this file on exit")
	return mutexprofile, blockprofile
}

// StartContentionProfiles enables mutex/block sampling for the paths that
// are non-empty and returns a stop function that writes the profiles and
// disables sampling. Sampling is full-rate (fraction/rate 1): contention
// runs are short and dedicated, so completeness beats overhead. Call the
// stop function on the tool's normal exit path; empty paths are no-ops.
func StartContentionProfiles(tool, mutexPath, blockPath string) (stop func()) {
	if mutexPath != "" {
		runtime.SetMutexProfileFraction(1)
	}
	if blockPath != "" {
		runtime.SetBlockProfileRate(1)
	}
	write := func(name, path string) {
		p := pprof.Lookup(name)
		if p == nil {
			die(tool, "-%sprofile: profile %q not registered", name, name)
		}
		f, err := os.Create(path)
		if err != nil {
			die(tool, "-%sprofile: %v", name, err)
		}
		if err := p.WriteTo(f, 0); err != nil {
			die(tool, "-%sprofile: %v", name, err)
		}
		if err := f.Close(); err != nil {
			die(tool, "-%sprofile: %v", name, err)
		}
	}
	return func() {
		if mutexPath != "" {
			write("mutex", mutexPath)
			runtime.SetMutexProfileFraction(0)
		}
		if blockPath != "" {
			write("block", blockPath)
			runtime.SetBlockProfileRate(0)
		}
	}
}

// StartProfiles begins CPU profiling when cpuPath is non-empty and returns
// a stop function that finishes the CPU profile and, when memPath is
// non-empty, writes a GC-settled heap profile. Call the stop function on
// the tool's normal exit path (deferred stops are lost on os.Exit, which
// is fine: a failed run's profile is not the one being measured). Empty
// paths make both halves no-ops.
func StartProfiles(tool, cpuPath, memPath string) (stop func()) {
	var cpuFile *os.File
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			die(tool, "-cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			die(tool, "-cpuprofile: %v", err)
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				die(tool, "-cpuprofile: %v", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				die(tool, "-memprofile: %v", err)
			}
			runtime.GC() // settle allocations so the heap profile is live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				die(tool, "-memprofile: %v", err)
			}
			if err := f.Close(); err != nil {
				die(tool, "-memprofile: %v", err)
			}
		}
	}
}
