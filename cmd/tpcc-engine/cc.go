package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

// The concurrency-control grid compares the three engine modes on the
// same seeded workload: 2PL (the oracle — shared read locks, blocking),
// mvcc (snapshot reads, write locks plus first-committer-wins
// validation), and ssi (mvcc plus Cahill-style serializability
// validation). The per-type breakdown is the point of the report: under
// the snapshot modes the read-only transactions (Order-Status,
// Stock-Level) must show zero conflicts and zero lock-wait aborts,
// while New-Order and Payment trade lock waits for write-conflict
// retries. For ssi the report breaks out the dangerous-structure abort
// count separately: TPC-C is serializable under plain SI (Fekete et
// al., TODS 2005), so every ssi abort on this workload is a FALSE
// POSITIVE of the conservative two-flag detector — the recorded
// ssi_false_positive_rate is the cost of the serializability guarantee.
const ccPoolPages = 32768

// ccTypeCell is one transaction type's share of a cc benchmark cell.
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

// ccCell is one (workers, cc mode) measurement.
type ccCell struct {
	Workers        int                   `json:"workers"`
	CC             string                `json:"cc"`
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

// ccReport is the BENCH_cc.json schema.
type ccReport struct {
	cliutil.Hardware
	Warehouses int      `json:"warehouses"`
	Txns       int      `json:"txns_per_cell"`
	PoolPages  int      `json:"buffer_pages"`
	Cells      []ccCell `json:"cells"`
}

// lockWaits returns the lock manager's wait and deadlock counts so far.
func lockWaits(d *db.DB) (waits, deadlocks int64) {
	_, w, dl := d.LockCounts()
	return w, dl
}

// runCCCell loads a fresh single-warehouse instance in the given cc mode
// and measures one cell. The state hash is taken after the run so
// same-seed single-worker cells across modes can be compared for the
// differential identity the cc smoke gates on.
func runCCCell(seed uint64, txns, warmup, workers int, cc db.CCMode, group wal.GroupConfig) (ccCell, error) {
	d, err := db.OpenWith(db.Config{
		Warehouses: 1, PageSize: 4096, BufferPages: ccPoolPages, CC: cc,
	}, db.Options{GroupCommit: group})
	if err != nil {
		return ccCell{}, err
	}
	if err := d.Load(seed); err != nil {
		return ccCell{}, err
	}
	mix := tpcc.DefaultMix()
	if warmup > 0 {
		if err := db.RunConcurrent(d, seed+1, mix, warmup, workers); err != nil {
			return ccCell{}, err
		}
	}
	// Settle the previous cell's garbage (a whole discarded pool) so no
	// inherited GC cycle lands mid-measurement.
	runtime.GC()
	waits0, dead0 := lockWaits(d)
	conflicts0 := d.WriteConflicts()
	ssiAborts0 := d.SSIAborts()
	st, err := db.RunConcurrentPolicy(d, seed+2, mix, txns, workers, db.DefaultRetryPolicy())
	if err != nil {
		return ccCell{}, err
	}
	waits1, dead1 := lockWaits(d)
	hash, err := d.StateHash()
	if err != nil {
		return ccCell{}, err
	}
	cell := ccCell{
		Workers:        workers,
		CC:             cc.String(),
		TxnsPerSec:     float64(txns) / st.Elapsed.Seconds(),
		TpmC:           st.TpmC(),
		Commits:        st.Commits,
		Aborts:         st.Aborts,
		Retries:        st.Retries,
		WriteConflicts: d.WriteConflicts() - conflicts0,
		SSIAborts:      d.SSIAborts() - ssiAborts0,
		LockWaits:      waits1 - waits0,
		Deadlocks:      dead1 - dead0,
		P50Micros:      st.Latency.P50.Microseconds(),
		P95Micros:      st.Latency.P95.Microseconds(),
		P99Micros:      st.Latency.P99.Microseconds(),
		StateHash:      fmt.Sprintf("%016x", hash),
		PerType:        map[string]ccTypeCell{},
	}
	// TPC-C under SI is serializable, so every dangerous-structure abort
	// is a detector false positive; the rate is aborts over validation
	// attempts (commits that passed plus the aborts themselves).
	if n := cell.SSIAborts; n > 0 {
		cell.FalsePositives = float64(n) / float64(cell.Commits+n)
	}
	for _, typ := range core.TxnTypes() {
		ts := st.PerType[typ]
		cell.PerType[typ.String()] = ccTypeCell{
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
	return cell, nil
}

// runBenchCC writes BENCH_cc.json: {2pl, mvcc, ssi} x 1/2/4/8 workers with
// per-type abort rates and latency quantiles, plus hardware metadata so
// the recorded curves carry their core count.
func runBenchCC(path string, seed uint64, group wal.GroupConfig) error {
	const txns, warmup = 8000, 500
	rep := ccReport{
		Hardware:   cliutil.HardwareInfo(),
		Warehouses: 1,
		Txns:       txns,
		PoolPages:  ccPoolPages,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		for _, cc := range []db.CCMode{db.CC2PL, db.CCMVCC, db.CCSSI} {
			cell, err := runCCCell(seed, txns, warmup, workers, cc, group)
			if err != nil {
				return fmt.Errorf("workers=%d cc=%s: %w", workers, cc, err)
			}
			fmt.Fprintf(os.Stderr,
				"bench-cc: workers=%d cc=%-4s tpmC=%-8.0f conflicts=%-5d ssi-aborts=%-4d waits=%-5d p99=%dus\n",
				cell.Workers, cell.CC, cell.TpmC, cell.WriteConflicts, cell.SSIAborts, cell.LockWaits, cell.P99Micros)
			rep.Cells = append(rep.Cells, cell)
		}
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// bestPair returns the paired run whose snapshot-mode tpmC is the largest
// fraction of its 2pl partner's, and that fraction.
func bestPair(pess, snap []ccCell) (best int, ratio float64) {
	ratio = -1
	for i := range snap {
		if r := snap[i].TpmC / pess[i].TpmC; r > ratio {
			best, ratio = i, r
		}
	}
	return best, ratio
}

// checkCCCells applies the concurrency-control gates to one worker
// count's paired same-seed runs, 2pl (pess[i]) against one snapshot mode
// (snap[i]), live or checked in. In every run: read-only types show no
// write conflicts (nothing written, nothing to conflict on); mvcc, which
// certifies nothing, reports no ssi abort in total or for any type; the
// recorded ssi false-positive rate matches the counts; and at one worker
// no ssi abort fires (no concurrency, no edges) and the state hash equals
// 2pl's (the modes committed the same history — the hash IS the oracle
// comparison). Over the runs: at one worker the best snapshot/2pl tpmC
// ratio is at least 0.9, so neither versioning nor SIREAD bookkeeping
// taxes the uncontended path (best of the pairs, to cancel scheduler
// drift on a shared core). Multi-worker ratios are evidence, not gates.
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
	if best, ratio := bestPair(pess, snap); workers == 1 && ratio < 0.9 {
		return fmt.Errorf("%s tpmC %.0f < 0.9 x 2pl %.0f at 1 worker (best of %d paired runs)",
			mode, snap[best].TpmC, pess[best].TpmC, len(snap))
	}
	return nil
}

// checkCCReport validates a checked-in BENCH_cc.json: hardware metadata
// present, all three modes at every worker count, and each mode's cells
// passing checkCCCells against 2pl's.
func checkCCReport(path string) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var rep ccReport
	if err := json.Unmarshal(buf, &rep); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if rep.Cores <= 0 {
		return fmt.Errorf("%s: missing hardware metadata", path)
	}
	type key struct {
		workers int
		cc      string
	}
	cells := map[key]ccCell{}
	for _, c := range rep.Cells {
		cells[key{c.Workers, c.CC}] = c
	}
	for _, workers := range []int{1, 2, 4, 8} {
		pess, ok := cells[key{workers, "2pl"}]
		if !ok {
			return fmt.Errorf("%s: missing 2pl cell at %d workers", path, workers)
		}
		for _, mode := range []string{"mvcc", "ssi"} {
			mv, ok := cells[key{workers, mode}]
			if !ok {
				return fmt.Errorf("%s: missing %s cell at %d workers", path, mode, workers)
			}
			if err := checkCCCells([]ccCell{pess}, []ccCell{mv}); err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
		}
	}
	return nil
}

// runCCSmoke is the CI gate for the snapshot CC paths. First the
// write-skew certification: the WriteSkewWitness schedule must be
// ADMITTED under mvcc and REFUSED under 2pl and ssi — the anomaly flipping
// to forbidden is the point of the ssi mode. Then, at 1/2/4/8 workers,
// three same-seed runs of 2pl, mvcc and ssi each, with each snapshot
// mode's runs held to checkCCCells against 2pl's and the best pair
// printed. With benchFile set, the checked-in BENCH_cc.json is validated
// too.
func runCCSmoke(seed uint64, group wal.GroupConfig, benchFile string) error {
	const txns, warmup, runs = 4000, 400, 3
	for _, wc := range []struct {
		cc   db.CCMode
		want bool
	}{{db.CC2PL, false}, {db.CCMVCC, true}, {db.CCSSI, false}} {
		got, err := db.WriteSkewWitness(wc.cc)
		if err != nil {
			return fmt.Errorf("write-skew witness under %s: %w", wc.cc, err)
		}
		if got != wc.want {
			return fmt.Errorf("write-skew witness under %s: admitted=%v, want %v", wc.cc, got, wc.want)
		}
		fmt.Printf("write-skew\t%s\tadmitted=%v\n", wc.cc, got)
	}
	fmt.Printf("cc\tworkers\ttpmc\tconflicts\tssi_aborts\tlock_waits\tratio\n")
	snapModes := []db.CCMode{db.CCMVCC, db.CCSSI}
	for _, workers := range []int{1, 2, 4, 8} {
		var pess []ccCell
		snap := map[db.CCMode][]ccCell{}
		for i := 0; i < runs; i++ {
			p, err := runCCCell(seed+uint64(i), txns, warmup, workers, db.CC2PL, group)
			if err != nil {
				return err
			}
			pess = append(pess, p)
			for _, cc := range snapModes {
				m, err := runCCCell(seed+uint64(i), txns, warmup, workers, cc, group)
				if err != nil {
					return err
				}
				snap[cc] = append(snap[cc], m)
			}
		}
		for _, cc := range snapModes {
			best, ratio := bestPair(pess, snap[cc])
			p, m := pess[best], snap[cc][best]
			fmt.Printf("2pl\t%d\t%.0f\t%d\t%d\t%d\t\n", workers, p.TpmC, p.WriteConflicts, p.SSIAborts, p.LockWaits)
			fmt.Printf("%s\t%d\t%.0f\t%d\t%d\t%d\t%.3f\n", cc, workers, m.TpmC, m.WriteConflicts, m.SSIAborts, m.LockWaits, ratio)
			if err := checkCCCells(pess, snap[cc]); err != nil {
				return err
			}
		}
	}
	if benchFile != "" {
		if err := checkCCReport(benchFile); err != nil {
			return err
		}
		fmt.Printf("bench-report\t%s\tok\n", benchFile)
	}
	fmt.Println("cc-smoke: ok")
	return nil
}
