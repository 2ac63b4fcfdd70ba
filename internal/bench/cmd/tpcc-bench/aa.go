package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"

	"tpccmodel/internal/bench"
)

// runChild makes one pass in a process of its own, so that every pass is
// measured the way a single invocation is and peak_rss_mb is that pass's. It
// returns the result object and, from an untraced pass, the audit object
// printed before it.
func runChild(wl bench.Workload, trace int, seed uint64, seconds int) (bench.ResultLine, bench.AuditLine, error) {
	var res bench.ResultLine
	var aud bench.AuditLine
	self, err := os.Executable()
	if err != nil {
		return res, aud, err
	}
	cmd := exec.Command(self, "-workload", wl.Name, "-trace", strconv.Itoa(trace),
		"-seed", strconv.FormatUint(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if len(out) == 0 || json.Unmarshal(lines[len(lines)-1], &res) != nil {
		return res, aud, fmt.Errorf("%s -trace %d printed no result: %v", wl.Name, trace, err)
	}
	if len(lines) > 1 {
		if err := json.Unmarshal(lines[len(lines)-2], &aud); err != nil {
			return res, aud, fmt.Errorf("%s -trace %d: audit line: %w", wl.Name, trace, err)
		}
	}
	return res, aud, nil
}

// repeat runs every selected pass n times and, for n above 1, reports per
// workload and end-to-end metric how far the repeats disagree. It returns
// false if an output check failed, a spread exceeded its bound, or a count
// that must repeat exactly did not.
func repeat(workloads []bench.Workload, traces []int, seed uint64, seconds, n int, varySeed bool) (bool, error) {
	ok := true
	values := map[string]map[string][]float64{} // workload → metric → one value per repeat
	audits := map[string][]bench.AuditLine{}
	for i := 0; i < n; i++ {
		s := seed
		if varySeed {
			s += uint64(i)
		}
		for _, wl := range workloads {
			for _, trace := range traces {
				res, aud, err := runChild(wl, trace, s, seconds)
				if err != nil {
					return false, err
				}
				ok = ok && res.Correct
				if trace == 1 {
					continue
				}
				if values[wl.Name] == nil {
					values[wl.Name] = map[string][]float64{}
				}
				for name, m := range res.Metrics {
					values[wl.Name][name] = append(values[wl.Name][name], m.Value)
				}
				values[wl.Name]["raw.tpmc"] = append(values[wl.Name]["raw.tpmc"], aud.Audit.RawTpmc)
				audits[wl.Name] = append(audits[wl.Name], aud)
			}
		}
	}
	if n < 2 || len(audits) == 0 {
		return ok, nil
	}

	fmt.Printf("%-13s %-20s %12s %12s %12s %8s %6s %s\n", "workload", "metric", "min", "median", "max", "spread", "bound", "spread/bound")
	row := func(wl string, m bench.Metric, gate bool) {
		vs := append([]float64(nil), values[wl][m.Name]...)
		sort.Float64s(vs)
		spread := bench.QuartileSpread(vs)
		verdict := ""
		if m.Bound > 0 {
			verdict = fmt.Sprintf("%.2f", spread/m.Bound)
			if gate && spread > m.Bound {
				verdict += "  EXCEEDS"
				ok = false
			}
		}
		fmt.Printf("%-13s %-20s %12.4f %12.4f %12.4f %7.2f%% %5.0f%% %s\n", wl, m.Name,
			vs[0], bench.Median(vs), vs[len(vs)-1], 100*spread, 100*m.Bound, verdict)
	}
	for _, wl := range workloads {
		for _, m := range bench.EndToEnd {
			// setup_s is reported but not gated on its spread, as in the
			// acceptance check: only its median must hold.
			row(wl.Name, m, m.Name != "setup_s")
		}
		row(wl.Name, bench.Metric{Name: "raw.tpmc"}, false)
		if wl.Workers > 1 || varySeed {
			continue
		}
		first := audits[wl.Name][0].Audit.Exact
		for i, a := range audits[wl.Name] {
			if a.Audit.Exact != first {
				fmt.Printf("%-13s repeat %d is not bit-identical to repeat 0: %+v vs %+v\n", wl.Name, i, a.Audit.Exact, first)
				ok = false
			}
		}
		if f := wl.Frozen; f != nil && seed == bench.DefaultSeed && seconds == bench.DefaultSeconds {
			if first != *f {
				fmt.Printf("%-13s differs from the frozen baseline: %+v, frozen %+v\n", wl.Name, first, *f)
				ok = false
			} else {
				fmt.Printf("%-13s state hash and counts bit-identical across repeats and equal to the frozen baseline\n", wl.Name)
			}
		}
	}
	return ok, nil
}
