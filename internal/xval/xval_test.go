package xval

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/storage"
)

// record appends one event to a hand-built stream through the real tap.
func record(s *Stream, page uint64, rel core.Relation, ev bufmgr.Event) {
	s.Tap()(storage.PageID(page), int(rel), ev)
}

func TestReplayDivergenceReporting(t *testing.T) {
	// Capacity 1: page 0, page 1 (0 evicted), page 0 again — a genuine
	// LRU miss that we falsely record as an engine hit. The replay must
	// flag exactly that access, with its stack distance.
	var s Stream
	record(&s, 0, core.Stock, bufmgr.Miss)
	record(&s, 1, core.Stock, bufmgr.Miss)
	record(&s, 0, core.Customer, bufmgr.Hit) // lie: engine says hit
	rep := s.Replay(1)
	if rep.Divergences != 1 || rep.First == nil {
		t.Fatalf("want exactly one divergence, got %d (first=%v)", rep.Divergences, rep.First)
	}
	d := rep.First
	if d.Index != 2 || d.Page != 0 || !d.EngineHit || d.ReplayHit || d.Distance != 2 {
		t.Fatalf("wrong divergence detail: %+v", d)
	}
	if d.Rel != core.Customer.String() {
		t.Fatalf("divergence relation = %q, want customer", d.Rel)
	}
	if !strings.Contains(d.String(), "page 0") {
		t.Fatalf("divergence string %q does not name the page", d.String())
	}
	// The same stream at capacity 2 really does hit: no divergence.
	if rep := s.Replay(2); rep.First != nil {
		t.Fatalf("unexpected divergence at capacity 2: %v", rep.First)
	}
}

func TestReplayAllocationsAreUncountedTouches(t *testing.T) {
	// An allocation makes the page resident at MRU without counting: the
	// following access must be a hit at any capacity >= 1, and only that
	// access may appear in the counts.
	var s Stream
	record(&s, 0, core.Order, bufmgr.Alloc)
	record(&s, 0, core.Order, bufmgr.Hit)
	rep := s.Replay(1)
	if rep.First != nil {
		t.Fatalf("unexpected divergence: %v", rep.First)
	}
	if rep.Total != (Counts{Hits: 1, Misses: 0}) {
		t.Fatalf("counts = %+v, want exactly the one hit", rep.Total)
	}
	if got := s.MeasuredAccesses(); got != 1 {
		t.Fatalf("MeasuredAccesses = %d, want 1", got)
	}
}

// TestReadAheadKeepsTheLogicalStream: page 2 is read ahead before the
// accesses of pages 0 and 1 and claimed after them. Replay scores the
// read-ahead as the engine's miss and the claim as an uncounted touch;
// Curves skip the read-ahead and count the claim where it stands, so they
// equal the curves of the same pins with no read-ahead at all.
func TestReadAheadKeepsTheLogicalStream(t *testing.T) {
	var ahead, plain Stream
	record(&ahead, 2, core.Stock, bufmgr.ReadAhead)
	for _, s := range []*Stream{&ahead, &plain} {
		record(s, 0, core.Stock, bufmgr.Miss)
		record(s, 1, core.Stock, bufmgr.Miss)
	}
	record(&ahead, 2, core.Stock, bufmgr.Claim)
	record(&plain, 2, core.Stock, bufmgr.Miss)
	record(&ahead, 2, core.Stock, bufmgr.Hit)
	record(&plain, 2, core.Stock, bufmgr.Hit)

	rep := ahead.Replay(3)
	if rep.First != nil {
		t.Fatalf("unexpected divergence: %v", rep.First)
	}
	if rep.Total != (Counts{Hits: 1, Misses: 3}) || ahead.MeasuredAccesses() != 4 {
		t.Fatalf("counts %+v over %d accesses, want 1 hit and 3 misses over 4", rep.Total, ahead.MeasuredAccesses())
	}
	got, _ := ahead.Curves()
	want, _ := plain.Curves()
	for _, c := range []int64{1, 2, 3} {
		if g, w := got[core.Stock].MissRate(c), want[core.Stock].MissRate(c); g != w {
			t.Errorf("capacity %d: miss rate %v with the read-ahead, %v without", c, g, w)
		}
	}
	if got[core.Stock].Accesses() != 4 {
		t.Errorf("curve counted %d accesses, want the 4 pins", got[core.Stock].Accesses())
	}
}

func TestReplayMarkSplitsWarmupFromMeasurement(t *testing.T) {
	// Pre-mark events warm the stack but are not counted: page 0 touched
	// before the mark makes the post-mark access a hit, yet the counts
	// hold only the measured window.
	var s Stream
	record(&s, 0, core.Item, bufmgr.Miss)
	record(&s, 1, core.Item, bufmgr.Miss)
	s.Mark()
	record(&s, 0, core.Item, bufmgr.Hit)
	rep := s.Replay(4)
	if rep.First != nil {
		t.Fatalf("unexpected divergence: %v", rep.First)
	}
	if rep.PerRel[core.Item] != (Counts{Hits: 1, Misses: 0}) {
		t.Fatalf("measured counts = %+v, want 1 hit", rep.PerRel[core.Item])
	}
	// Curves see the same window.
	perRel, overall := s.Curves()
	if perRel[core.Item].Accesses() != 1 || overall.Accesses() != 1 {
		t.Fatalf("curve accesses = %d/%d, want 1/1",
			perRel[core.Item].Accesses(), overall.Accesses())
	}
	if d := perRel[core.Item].MissRate(4); d != 0 {
		t.Fatalf("measured miss rate = %v, want 0 (warmed hit)", d)
	}
}

func TestCountsMissRate(t *testing.T) {
	if got := (Counts{}).MissRate(); got != 0 {
		t.Fatalf("empty MissRate = %v, want 0", got)
	}
	if got := (Counts{Hits: 3, Misses: 1}).MissRate(); got != 0.25 {
		t.Fatalf("MissRate = %v, want 0.25", got)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"warehouses", func(c *Config) { c.Warehouses = 0 }},
		{"buffer", func(c *Config) { c.BufferPages = 0 }},
		{"measure", func(c *Config) { c.MeasureTxns = 0 }},
		{"caps-empty", func(c *Config) { c.CapacitiesPages = nil }},
		{"caps-zero", func(c *Config) { c.CapacitiesPages = []int64{0} }},
		{"batches", func(c *Config) { c.SimBatches = 1 }},
		{"tol", func(c *Config) { c.TolReplaySim = 0 }},
		{"tol-analytic", func(c *Config) { c.TolAnalytic = -1 }},
	}
	for _, tc := range cases {
		cfg := DefaultConfig()
		tc.mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: invalid config accepted", tc.name)
		}
	}
}

// testConfig is a fast reduced-scale run (~1s) for the agreement gates.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.WarmupTxns = 500
	cfg.MeasureTxns = 2_500
	cfg.CapacitiesPages = []int64{512, 2048, 8192}
	cfg.SimWarmupTxns = 1_000
	cfg.SimBatches = 2
	cfg.SimBatchTxns = 2_000
	return cfg
}

// TestEngineModelAgreement is the cross-validation acceptance gate: the
// engine's measured hit/miss counts must be bit-identical to the replayed
// LRU stack simulation for every relation, and the three-way comparison
// (engine replay vs synthetic simulation vs Che's closed form) must agree
// within the documented tolerances.
func TestEngineModelAgreement(t *testing.T) {
	if testing.Short() {
		t.Skip("engine run takes ~1s")
	}
	res, err := Run(testConfig())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.ExactMatch {
		t.Fatalf("engine vs replay NOT bit-identical: first divergence %v, rows %+v",
			res.Divergence, res.Exact)
	}
	if len(res.Exact) == 0 {
		t.Fatal("no relations compared in the exact gate")
	}
	for _, e := range res.Exact {
		if !e.Match {
			t.Errorf("%s: engine %d/%d vs replay %d/%d",
				e.Relation, e.EngineHits, e.EngineMisses, e.ReplayHits, e.ReplayMisses)
		}
	}
	if res.MeasuredAccesses == 0 {
		t.Fatal("no accesses measured")
	}
	if err := res.Err(); err != nil {
		t.Fatalf("agreement gate failed: %v", err)
	}
	// Sanity on the report shape: three modeled relations per capacity.
	want := 3 * len(res.Config.CapacitiesPages)
	if len(res.Rows) != want {
		t.Fatalf("got %d comparison rows, want %d", len(res.Rows), want)
	}

	// The report must round-trip: TSV mentions both verdicts, JSON decodes
	// back to the same gate outcome.
	var tsv bytes.Buffer
	if err := res.WriteTSV(&tsv); err != nil {
		t.Fatalf("WriteTSV: %v", err)
	}
	if !strings.Contains(tsv.String(), "exact gate): PASS") {
		t.Fatalf("TSV missing exact-gate verdict:\n%s", tsv.String())
	}
	var js bytes.Buffer
	if err := res.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var back Result
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if !back.ExactMatch || back.MeasuredAccesses != res.MeasuredAccesses {
		t.Fatalf("JSON round-trip lost fields: %+v", back)
	}
}

// TestReplayMatchesMissCurveInclusion cross-checks Replay against Curves
// on the same recorded stream: by LRU's inclusion property the per-capacity
// counts derived from the miss curve must equal the direct replay.
func TestReplayMatchesMissCurveInclusion(t *testing.T) {
	var s Stream
	// A small synthetic stream with reuse, allocation, and growth.
	pages := []uint64{0, 1, 2, 0, 3, 1, 4, 2, 0, 5, 3, 0, 1}
	for i, p := range pages {
		ev := bufmgr.Miss
		if i == 6 {
			ev = bufmgr.Alloc
		} else if i > 0 && p <= 2 {
			ev = bufmgr.Hit
		}
		record(&s, p, core.Stock, ev)
	}
	for _, cap := range []int64{1, 2, 3, 8} {
		rep := s.Replay(cap)
		perRel, _ := s.Curves()
		curve := perRel[core.Stock]
		wantMiss := curve.MissRate(cap)
		total := rep.PerRel[core.Stock]
		// The two compute misses/n vs 1-hits/n; allow the one-ulp gap.
		if got := total.MissRate(); math.Abs(got-wantMiss) > 1e-12 {
			t.Errorf("capacity %d: replay miss %v != curve miss %v", cap, got, wantMiss)
		}
		if n := total.Hits + total.Misses; n != curve.Accesses() {
			t.Errorf("capacity %d: replay counted %d accesses, curve %d", cap, n, curve.Accesses())
		}
	}
}
