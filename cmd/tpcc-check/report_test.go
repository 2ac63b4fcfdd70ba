package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// checkedIn returns a decoder of the checked-in report name at the
// repository root: each call yields a fresh copy to break.
func checkedIn[R any](t *testing.T, name string) func() *R {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "..", name))
	if err != nil {
		t.Fatal(err)
	}
	return func() *R {
		rep := new(R)
		if err := json.Unmarshal(buf, rep); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return rep
	}
}

// TestCheckCommitReportCatchesEachGate feeds checkCommitReport the
// checked-in BENCH_commit.json, which passes, and then copies of it with
// one check broken each, which must fail naming that check.
func TestCheckCommitReportCatchesEachGate(t *testing.T) {
	fresh := checkedIn[commitReport](t, commitReportName)
	if err := checkCommitReport(*fresh()); err != nil {
		t.Fatalf("%s: %v", commitReportName, err)
	}
	cell := func(rep *commitReport, workers int, grouped bool) *commitCell {
		for i := range rep.Cells {
			if c := &rep.Cells[i]; c.Workers == workers && c.Grouped == grouped {
				return c
			}
		}
		t.Fatalf("no grouped=%v cell at %d workers", grouped, workers)
		return nil
	}
	readOnly := func(rep *commitReport, cc string) *readOnlyCell {
		for i := range rep.ReadOnly {
			if c := &rep.ReadOnly[i]; c.CC == cc {
				return c
			}
		}
		t.Fatalf("no read-only run under %s", cc)
		return nil
	}
	for _, tc := range []struct {
		want   string
		mutate func(rep *commitReport)
	}{
		{"ungrouped forces per writing commit = 0.9500 at 4 workers", func(rep *commitReport) {
			cell(rep, 4, false).ForcesPerCommit = 0.95
		}},
		{"grouped forces per writing commit = 1.0000 at 2 workers", func(rep *commitReport) {
			cell(rep, 2, true).ForcesPerCommit = 1
		}},
		{"< 0.9 x ungrouped", func(rep *commitReport) {
			cell(rep, 8, true).TpmC = 0.5 * cell(rep, 8, false).TpmC
		}},
		{"acknowledged", func(rep *commitReport) { cell(rep, 1, false).Acked-- }},
		{"missing grouped/ungrouped pair at 2 workers", func(rep *commitReport) { cell(rep, 2, true).Workers = 3 }},
		{"log_force_us", func(rep *commitReport) { rep.ForceUS = 0 }},
		{"forced it 1 times", func(rep *commitReport) { readOnly(rep, "ssi").LogForces = 1 }},
		{"waited for the log 1 times", func(rep *commitReport) { readOnly(rep, "mvcc").LogWaits = 1 }},
		{"399 read-only commits", func(rep *commitReport) { readOnly(rep, "2pl").Commits-- }},
		{"missing read-only run under mvcc", func(rep *commitReport) { readOnly(rep, "mvcc").CC = "none" }},
	} {
		rep := fresh()
		tc.mutate(rep)
		if err := checkCommitReport(*rep); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("report broken for %q: got %v", tc.want, err)
		}
	}
}

// TestCheckCCReportCatchesEachGate feeds checkCCReport the checked-in
// BENCH_cc.json, which passes, and then copies of it with one gate broken
// each, which must fail naming that gate.
func TestCheckCCReportCatchesEachGate(t *testing.T) {
	fresh := checkedIn[ccReport](t, ccReportName)
	if err := checkCCReport(*fresh()); err != nil {
		t.Fatalf("%s: %v", ccReportName, err)
	}
	// runs returns every run of one (workers, mode) cell, in file order.
	runs := func(rep *ccReport, workers int, cc string) []*ccCell {
		var out []*ccCell
		for i := range rep.Cells {
			if c := &rep.Cells[i]; c.Workers == workers && c.CC == cc {
				out = append(out, c)
			}
		}
		if len(out) != ccRuns {
			t.Fatalf("%d %s runs at %d workers, want %d", len(out), cc, workers, ccRuns)
		}
		return out
	}
	cell := func(rep *ccReport, workers int, cc string) *ccCell { return runs(rep, workers, cc)[0] }

	// The throughput gate is best of the paired runs: slowing every run
	// but the best one passes.
	rep := fresh()
	pess, snap := runs(rep, 1, "2pl"), runs(rep, 1, "ssi")
	best := 0
	for i := range snap {
		if snap[i].TpmC/pess[i].TpmC > snap[best].TpmC/pess[best].TpmC {
			best = i
		}
	}
	for i := range snap {
		if i != best {
			snap[i].TpmC = 0.5 * pess[i].TpmC
		}
	}
	if err := checkCCReport(*rep); err != nil {
		t.Fatalf("%d slow runs of %d failed the gate: %v", ccRuns-1, ccRuns, err)
	}

	for _, tc := range []struct {
		want   string
		mutate func(rep *ccReport)
	}{
		{"write conflicts", func(rep *ccReport) {
			c := cell(rep, 4, "ssi")
			tc := c.PerType["stock-level"]
			tc.Conflicts = 1
			c.PerType["stock-level"] = tc
		}},
		{"ssi aborts under mvcc", func(rep *ccReport) { cell(rep, 8, "mvcc").SSIAborts = 1 }},
		{"payment reports 1 ssi aborts", func(rep *ccReport) {
			c := cell(rep, 2, "mvcc")
			tc := c.PerType["payment"]
			tc.SSIAborts = 1
			c.PerType["payment"] = tc
		}},
		{"false-positive rate", func(rep *ccReport) { cell(rep, 4, "ssi").FalsePositives += 0.01 }},
		{"no concurrency, no edges", func(rep *ccReport) {
			c := cell(rep, 1, "ssi")
			c.SSIAborts = 1
			c.FalsePositives = 1 / float64(c.Commits+1)
		}},
		{"state hashes diverge", func(rep *ccReport) { cell(rep, 1, "mvcc").StateHash = "0" }},
		{"< 0.9 x 2pl", func(rep *ccReport) {
			pess := runs(rep, 1, "2pl")
			for i, c := range runs(rep, 1, "ssi") {
				c.TpmC = 0.5 * pess[i].TpmC
			}
		}},
		{"missing ssi cell at 8 workers", func(rep *ccReport) { cell(rep, 8, "ssi").Workers = 16 }},
		{"runs_per_cell 1", func(rep *ccReport) { rep.Runs = 1 }},
		{"missing hardware metadata", func(rep *ccReport) { rep.Cores = 0 }},
	} {
		rep := fresh()
		tc.mutate(rep)
		if err := checkCCReport(*rep); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("report broken for %q: got %v", tc.want, err)
		}
	}
}
