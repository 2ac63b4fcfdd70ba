package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckCCReportCatchesEachGate feeds checkCCReport the checked-in
// BENCH_cc.json, which passes, and then copies of it with one gate broken
// each, which must fail naming that gate.
func TestCheckCCReportCatchesEachGate(t *testing.T) {
	const checkedIn = "../../BENCH_cc.json"
	if err := checkCCReport(checkedIn); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(checkedIn)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(rep *ccReport, workers int, cc string) *ccCell {
		for i := range rep.Cells {
			if c := &rep.Cells[i]; c.Workers == workers && c.CC == cc {
				return c
			}
		}
		t.Fatalf("no %s cell at %d workers", cc, workers)
		return nil
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
		{"< 0.9 x 2pl", func(rep *ccReport) { cell(rep, 1, "ssi").TpmC = 0.5 * cell(rep, 1, "2pl").TpmC }},
		{"missing ssi cell at 8 workers", func(rep *ccReport) { cell(rep, 8, "ssi").Workers = 16 }},
	} {
		var rep ccReport
		if err := json.Unmarshal(buf, &rep); err != nil {
			t.Fatal(err)
		}
		tc.mutate(&rep)
		out, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "BENCH_cc.json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := checkCCReport(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("report broken for %q: got %v", tc.want, err)
		}
	}
}
