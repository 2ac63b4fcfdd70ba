package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// ResultLine is the object a run prints as the last line of its standard
// output.
type ResultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]MetricValue `json:"metrics"`
}

// MetricValue is one reported number with its unit.
type MetricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// AuditLine is printed before the result line by an untraced run, for the
// A/A tool: the whole-number outcome and the un-normalised throughput.
type AuditLine struct {
	Audit struct {
		Exact
		RawTpmc float64 `json:"raw_tpmc"`
	} `json:"audit"`
}

// Line encodes the result with exactly the listed metrics. It fails if the
// pass did not produce one of them or produced something that is not a
// number.
func (r *Result) Line(list []Metric) ([]byte, error) {
	out := ResultLine{Correct: r.Correct(), Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]MetricValue, len(list))}
	for _, m := range list {
		v, ok := r.Values[m.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("bench: %s: metric %s missing or not a number (%v)", r.Workload, m.Name, v)
		}
		out.Metrics[m.Name] = MetricValue{Value: v, Unit: m.Unit}
	}
	return json.Marshal(out)
}

// AuditLine encodes the audit object of an untraced run.
func (r *Result) AuditLine() ([]byte, error) {
	var a AuditLine
	a.Audit.Exact, a.Audit.RawTpmc = r.Exact, r.Values["raw.tpmc"]
	return json.Marshal(a)
}

// WriteTable prints the listed metrics by name with their units, the sample
// count behind each latency, the audit figures the list leaves out, and the
// outcome of the output checks.
func (r *Result) WriteTable(w io.Writer, title string, list []Metric) {
	fmt.Fprintf(w, "%s  %s: attempted %d, failed %d\n", r.Workload, title, r.Attempted, r.Failed)
	for _, m := range list {
		v, ok := r.Values[m.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-30s %14.4f %-6s", m.Name, v, m.Unit)
		if n, ok := r.Samples[m.Name]; ok {
			fmt.Fprintf(w, " (%d samples)", n)
		}
		fmt.Fprintln(w)
	}
	listed := map[string]bool{}
	for _, m := range list {
		listed[m.Name] = true
	}
	for _, name := range []string{"raw.tpmc", "raw.window_tpmc", "stall_share", "calib.factor_p50", "calib.factor_spread", "peak_rss_mb"} {
		if v, ok := r.Values[name]; ok && !listed[name] {
			fmt.Fprintf(w, "  (%s %.4f)\n", name, v)
		}
	}
	fmt.Fprintf(w, "  state hash %#x, %d page I/Os, %d log bytes, %d lock acquires over %d acknowledged\n",
		r.Exact.StateHash, r.Exact.PageIOs, r.Exact.LogBytes, r.Exact.LockAcquires, r.Exact.Acked)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  OUTPUT CHECK FAILED: %s\n", p)
	}
}

// Manifest renders BENCHMARK.json from the tables in this package, so the
// file and the code cannot drift apart unnoticed (a test compares them).
func Manifest() ([]byte, error) {
	type workload struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string   `json:"command"`
		Paths      []string   `json:"paths"`
		RunSeconds int        `json:"run_seconds"`
		Workloads  []workload `json:"workloads"`
		EndToEnd   []bounded  `json:"end_to_end"`
		PerLayer   []layer    `json:"per_layer"`
	}{
		Command:    []string{"bash", "internal/bench/run.sh"},
		Paths:      []string{"internal/bench"},
		RunSeconds: DefaultSeconds,
	}
	for _, w := range Workloads {
		m.Workloads = append(m.Workloads, workload{w.Name, w.Why})
	}
	for _, e := range EndToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{e.Name, e.Unit, e.Better, e.Bound})
	}
	for _, p := range PerLayer {
		m.PerLayer = append(m.PerLayer, layer{p.Name, p.Unit, p.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
