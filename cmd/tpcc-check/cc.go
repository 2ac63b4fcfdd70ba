package main

import (
	"fmt"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
)

// The cc gate compares the three engine modes on the same seeded
// workload: 2PL (the oracle — shared read locks, blocking), mvcc
// (snapshot reads, write locks plus first-committer-wins validation), and
// ssi (mvcc plus Cahill-style serializability validation). The per-type
// breakdown is the point of the report: under the snapshot modes the
// read-only transactions (Order-Status, Stock-Level) show no write
// conflicts, while New-Order and Payment trade lock waits for
// write-conflict retries. TPC-C is serializable under plain SI (Fekete et
// al., TODS 2005), so every ssi abort on this workload is a false
// positive of the conservative two-flag detector: the recorded
// ssi_false_positive_rate is the cost of the serializability guarantee.
const (
	ccPoolPages  = 32768
	ccWarmup     = 400
	ccRuns       = 3 // same-seed runs per (workers, mode); run i uses seed+i
	ccReportName = "BENCH_cc.json"
)

// ccModes are the concurrency-control modes, 2pl (the oracle) first.
var ccModes = []db.CCMode{db.CC2PL, db.CCMVCC, db.CCSSI}

// ccTypeCell is one transaction type's share of a cc cell.
type ccTypeCell struct {
	Acked     int64   `json:"acked"`
	Aborts    int64   `json:"aborts"`
	Conflicts int64   `json:"write_conflicts"`
	SSIAborts int64   `json:"ssi_aborts"`
	AbortRate float64 `json:"abort_rate"`
	P50Micros int64   `json:"p50_us"`
	P95Micros int64   `json:"p95_us"`
	P99Micros int64   `json:"p99_us"`
}

// ccCell is one (workers, cc mode, run) measurement.
type ccCell struct {
	Workers        int                   `json:"workers"`
	CC             string                `json:"cc"`
	Run            int                   `json:"run"`
	TxnsPerSec     float64               `json:"txns_per_sec"`
	TpmC           float64               `json:"tpmc"`
	Commits        int64                 `json:"commits"`
	Aborts         int64                 `json:"aborts"`
	Retries        int64                 `json:"retries"`
	WriteConflicts int64                 `json:"write_conflicts"`
	SSIAborts      int64                 `json:"ssi_aborts"`
	FalsePositives float64               `json:"ssi_false_positive_rate"`
	LockWaits      int64                 `json:"lock_waits"`
	Deadlocks      int64                 `json:"deadlocks"`
	P50Micros      int64                 `json:"p50_us"`
	P95Micros      int64                 `json:"p95_us"`
	P99Micros      int64                 `json:"p99_us"`
	StateHash      string                `json:"state_hash"`
	PerType        map[string]ccTypeCell `json:"per_type"`
}

// ccReport is the BENCH_cc.json schema: every run of every cell the cc
// gate judged, with the scale they were taken at.
type ccReport struct {
	cliutil.Hardware
	Seed       uint64   `json:"seed"`
	Warehouses int      `json:"warehouses"`
	Txns       int      `json:"txns_per_cell"`
	Warmup     int      `json:"warmup_txns"`
	PoolPages  int      `json:"buffer_pages"`
	Runs       int      `json:"runs_per_cell"`
	Cells      []ccCell `json:"cells"`
}

// runCC runs ccRuns same-seed runs of 2pl, mvcc and ssi at 1/2/4/8
// workers with txns per cell (CI: 4000), judges them with checkCCReport
// and writes them as BENCH_cc.json under -out. Which anomalies each mode
// admits is db.TestAnomalyMatrix's to check.
func runCC(o options) error {
	rep := ccReport{
		Hardware:   cliutil.HardwareInfo(),
		Seed:       gateSeed,
		Warehouses: 1,
		Txns:       size(o.txns, 4000),
		Warmup:     ccWarmup,
		PoolPages:  ccPoolPages,
		Runs:       ccRuns,
	}
	fmt.Fprintf(o.stdout, "cc\tworkers\trun\ttpmc\tconflicts\tssi_aborts\tlock_waits\tp99_us\n")
	for _, workers := range []int{1, 2, 4, 8} {
		for run := 0; run < rep.Runs; run++ {
			for _, cc := range ccModes {
				c, err := runCCCell(rep, workers, run, cc)
				if err != nil {
					return fmt.Errorf("workers=%d run=%d cc=%s: %w", workers, run, cc, err)
				}
				fmt.Fprintf(o.stdout, "%s\t%d\t%d\t%.0f\t%d\t%d\t%d\t%d\n", c.CC, workers, run,
					c.TpmC, c.WriteConflicts, c.SSIAborts, c.LockWaits, c.P99Micros)
				rep.Cells = append(rep.Cells, c)
			}
		}
	}
	if err := checkCCReport(rep); err != nil {
		return err
	}
	return writeReport(o, ccReportName, rep)
}

// runCCCell loads a fresh single-warehouse instance in mode cc at rep's
// scale, seeded rep.Seed+run, and measures one cell. The state hash is
// taken after the run, so same-seed single-worker cells of different
// modes can be compared.
func runCCCell(rep ccReport, workers, run int, cc db.CCMode) (ccCell, error) {
	d, err := db.OpenWith(db.Config{
		Warehouses: rep.Warehouses, PageSize: 4096, BufferPages: rep.PoolPages, CC: cc,
	}, db.Options{GroupCommit: batched})
	if err != nil {
		return ccCell{}, err
	}
	st, err := measure(d, rep.Seed+uint64(run), rep.Txns, rep.Warmup, workers, func() {})
	if err != nil {
		return ccCell{}, err
	}
	hash, err := d.StateHash()
	if err != nil {
		return ccCell{}, err
	}
	c := ccCell{
		Workers:        workers,
		CC:             cc.String(),
		Run:            run,
		TxnsPerSec:     float64(st.Acknowledged()) / st.Elapsed.Seconds(),
		TpmC:           st.TpmC(),
		Commits:        st.Commits,
		Aborts:         st.Aborts,
		Retries:        st.Retries,
		WriteConflicts: st.WriteConflicts,
		SSIAborts:      st.SSIAborts,
		LockWaits:      st.LockWaits,
		Deadlocks:      st.Deadlocks,
		P50Micros:      st.Latency.P50.Microseconds(),
		P95Micros:      st.Latency.P95.Microseconds(),
		P99Micros:      st.Latency.P99.Microseconds(),
		StateHash:      fmt.Sprintf("%016x", hash),
		PerType:        map[string]ccTypeCell{},
	}
	// Every dangerous-structure abort is a false positive; the rate is
	// aborts over validation attempts (commits that passed plus the
	// aborts themselves).
	if n := c.SSIAborts; n > 0 {
		c.FalsePositives = float64(n) / float64(c.Commits+n)
	}
	for _, typ := range core.TxnTypes() {
		ts := st.PerType[typ]
		c.PerType[typ.String()] = ccTypeCell{
			Acked:     ts.Acked,
			Aborts:    ts.Aborts,
			Conflicts: ts.Conflicts,
			SSIAborts: ts.SSIAborts,
			AbortRate: ts.AbortRate(),
			P50Micros: ts.P50.Microseconds(),
			P95Micros: ts.P95.Microseconds(),
			P99Micros: ts.P99.Microseconds(),
		}
	}
	return c, nil
}

// checkCCReport applies the cc gate to a report, live or checked in:
// hardware metadata present and at every worker count ccRuns runs of each
// mode, each snapshot mode's runs passing checkCCCells against 2pl's.
func checkCCReport(rep ccReport) error {
	if rep.Cores <= 0 {
		return fmt.Errorf("missing hardware metadata")
	}
	if rep.Runs != ccRuns {
		return fmt.Errorf("runs_per_cell %d, want %d", rep.Runs, ccRuns)
	}
	type key struct {
		workers int
		cc      string
		run     int
	}
	cells := map[key]ccCell{}
	for _, c := range rep.Cells {
		cells[key{c.Workers, c.CC, c.Run}] = c
	}
	for _, workers := range []int{1, 2, 4, 8} {
		runs := map[string][]ccCell{}
		for _, cc := range ccModes {
			for run := 0; run < ccRuns; run++ {
				c, ok := cells[key{workers, cc.String(), run}]
				if !ok {
					return fmt.Errorf("missing %s cell at %d workers (run %d of %d)", cc, workers, run+1, ccRuns)
				}
				runs[cc.String()] = append(runs[cc.String()], c)
			}
		}
		for _, cc := range ccModes[1:] {
			if err := checkCCCells(runs["2pl"], runs[cc.String()]); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkCCCells applies the cc gate to one worker count's paired same-seed
// runs, 2pl (pess[i]) against one snapshot mode (snap[i]). In every run:
// read-only types show no write conflicts (nothing written, nothing to
// conflict on); mvcc, which certifies nothing, reports no ssi abort in
// total or for any type; the recorded ssi false-positive rate matches the
// counts; and at one worker no ssi abort fires (no concurrency, no edges)
// and the state hash equals 2pl's (the modes committed the same history —
// the hash IS the oracle comparison). Over the runs: at one worker the
// best snapshot/2pl tpmC ratio is at least 0.9, so neither versioning nor
// SIREAD bookkeeping taxes the uncontended path (best of the pairs, to
// cancel scheduler drift on a shared core). Multi-worker ratios are
// evidence, not gates.
//
// Read-only types are NOT required to be free of ssi aborts under ssi: a
// reader that lands under a version created by an already-committed pivot
// cannot break the dangerous structure by aborting the pivot, so it yields
// instead.
func checkCCCells(pess, snap []ccCell) error {
	mode, workers := snap[0].CC, snap[0].Workers
	for i, m := range snap {
		at := fmt.Sprintf("under %s at %d workers (run %d of %d)", mode, workers, i+1, len(snap))
		for _, typ := range []core.TxnType{core.TxnOrderStatus, core.TxnStockLevel} {
			if n := m.PerType[typ.String()].Conflicts; n != 0 {
				return fmt.Errorf("read-only %s shows %d write conflicts %s", typ, n, at)
			}
		}
		if mode == db.CCMVCC.String() {
			if m.SSIAborts != 0 {
				return fmt.Errorf("%d ssi aborts %s", m.SSIAborts, at)
			}
			for _, typ := range core.TxnTypes() {
				if n := m.PerType[typ.String()].SSIAborts; n != 0 {
					return fmt.Errorf("%s reports %d ssi aborts %s", typ, n, at)
				}
			}
		}
		wantFP := 0.0
		if m.SSIAborts > 0 {
			wantFP = float64(m.SSIAborts) / float64(m.Commits+m.SSIAborts)
		}
		if diff := m.FalsePositives - wantFP; diff > 1e-9 || diff < -1e-9 {
			return fmt.Errorf("ssi false-positive rate %.6f inconsistent with counts (want %.6f) %s",
				m.FalsePositives, wantFP, at)
		}
		if workers == 1 {
			if m.SSIAborts != 0 {
				return fmt.Errorf("%d ssi aborts %s — no concurrency, no edges", m.SSIAborts, at)
			}
			if pess[i].StateHash != m.StateHash {
				return fmt.Errorf("state hashes diverge %s: 2pl=%s %s=%s — the modes committed different histories",
					at, pess[i].StateHash, mode, m.StateHash)
			}
		}
	}
	if workers == 1 {
		best, ratio := 0, -1.0
		for i := range snap {
			if r := snap[i].TpmC / pess[i].TpmC; r > ratio {
				best, ratio = i, r
			}
		}
		if ratio < 0.9 {
			return fmt.Errorf("%s tpmC %.0f < 0.9 x 2pl %.0f at 1 worker (best of %d paired runs)",
				mode, snap[best].TpmC, pess[best].TpmC, len(snap))
		}
	}
	return nil
}
