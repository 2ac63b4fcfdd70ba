package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"tpccmodel/internal/cliutil"
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

// The commit gate compares one force per writing commit with group commit
// at 1/2/4/8 workers, one fresh warehouse per cell, on a log device that
// costs commitForceCost a force: on a free device there is nothing for
// group commit to amortise, and time.Sleep cannot wait much less. Cells
// are device-bound, so one run each tells the modes apart.
const (
	commitForceCost  = time.Millisecond
	commitPoolPages  = 8192
	commitWarmup     = 200
	readOnlyTxns     = 400 // per mode, at 2 workers
	commitReportName = "BENCH_commit.json"
)

// commitCell is one (workers, grouped) measurement.
type commitCell struct {
	Workers         int     `json:"workers"`
	Grouped         bool    `json:"grouped"`
	TxnsPerSec      float64 `json:"txns_per_sec"`
	TpmC            float64 `json:"tpmc"`
	Acked           int64   `json:"acked"`
	Commits         int64   `json:"commits"`
	Aborts          int64   `json:"aborts"`
	LogForces       int64   `json:"log_forces"`
	LogWaits        int64   `json:"log_waits"`
	ForcesPerCommit float64 `json:"forces_per_commit"`
	P50Micros       int64   `json:"p50_us"`
	P95Micros       int64   `json:"p95_us"`
	P99Micros       int64   `json:"p99_us"`
	MeanMicros      int64   `json:"mean_us"`
}

// readOnlyCell is one mode's run of Order-Status and Stock-Level alone.
type readOnlyCell struct {
	CC        string `json:"cc"`
	Commits   int64  `json:"commits"`
	LogWaits  int64  `json:"log_waits"`
	LogForces int64  `json:"log_forces"`
}

// commitReport is the BENCH_commit.json schema: the cells the commit gate
// judged, with the scale they were taken at.
type commitReport struct {
	cliutil.Hardware
	Seed       uint64         `json:"seed"`
	Warehouses int            `json:"warehouses"`
	Txns       int            `json:"txns_per_cell"`
	Warmup     int            `json:"warmup_txns"`
	PoolPages  int            `json:"buffer_pages"`
	ForceUS    int64          `json:"log_force_us"`
	Cells      []commitCell   `json:"cells"`
	ReadOnly   []readOnlyCell `json:"read_only"`
}

// sleepLog is a log device with a service time: every force sleeps for it
// (once charging is switched on, so loading and warm-up stay free) and is
// counted.
type sleepLog struct {
	cost   atomic.Int64 // nanoseconds
	forces atomic.Int64
}

func (s *sleepLog) BeforeForce(int) error {
	s.forces.Add(1)
	if c := s.cost.Load(); c > 0 {
		time.Sleep(time.Duration(c))
	}
	return nil
}

// runCommit measures the commit grid and the read-only runs at txns per
// cell (CI: 1000), judges them with checkCommitReport and writes them as
// BENCH_commit.json under -out.
func runCommit(o options) error {
	rep := commitReport{
		Hardware:   cliutil.HardwareInfo(),
		Seed:       gateSeed,
		Warehouses: 1,
		Txns:       size(o.txns, 1000),
		Warmup:     commitWarmup,
		PoolPages:  commitPoolPages,
		ForceUS:    commitForceCost.Microseconds(),
	}
	fmt.Fprintf(o.stdout, "mode\tworkers\tforces_per_commit\ttpmc\tp99_us\n")
	for _, workers := range []int{1, 2, 4, 8} {
		for _, group := range []wal.GroupConfig{{}, batched} {
			c, err := runCommitCell(rep, workers, group)
			if err != nil {
				return fmt.Errorf("workers=%d grouped=%v: %w", workers, group.Enabled(), err)
			}
			mode := "ungrouped"
			if c.Grouped {
				mode = "grouped"
			}
			fmt.Fprintf(o.stdout, "%s\t%d\t%.4f\t%.0f\t%d\n", mode, workers, c.ForcesPerCommit, c.TpmC, c.P99Micros)
			rep.Cells = append(rep.Cells, c)
		}
	}
	for _, cc := range ccModes {
		c, err := runReadOnly(rep.Seed, cc)
		if err != nil {
			return fmt.Errorf("read-only under %s: %w", cc, err)
		}
		fmt.Fprintf(o.stdout, "read-only\t%s\t%d commits\t%d log waits\t%d forces\n", cc, c.Commits, c.LogWaits, c.LogForces)
		rep.ReadOnly = append(rep.ReadOnly, c)
	}
	if err := checkCommitReport(rep); err != nil {
		return err
	}
	return writeReport(o, commitReportName, rep)
}

// runCommitCell loads a fresh single-warehouse instance at rep's scale
// and measures one (workers, group) cell. forces_per_commit is forces
// over the commits that waited for one (the writers).
func runCommitCell(rep commitReport, workers int, group wal.GroupConfig) (commitCell, error) {
	dev := &sleepLog{}
	d, err := db.OpenWith(db.Config{Warehouses: rep.Warehouses, PageSize: 4096, BufferPages: rep.PoolPages},
		db.Options{GroupCommit: group, LogHook: dev})
	if err != nil {
		return commitCell{}, err
	}
	st, err := measure(d, rep.Seed, rep.Txns, rep.Warmup, workers, func() { dev.cost.Store(int64(commitForceCost)) })
	if err != nil {
		return commitCell{}, err
	}
	return commitCell{
		Workers:         workers,
		Grouped:         group.Enabled(),
		TxnsPerSec:      float64(st.Acknowledged()) / st.Elapsed.Seconds(),
		TpmC:            st.TpmC(),
		Acked:           st.Acknowledged(),
		Commits:         st.Commits,
		Aborts:          st.Aborts,
		LogForces:       st.LogForces,
		LogWaits:        st.LogWaits,
		ForcesPerCommit: st.ForcesPerCommit(),
		P50Micros:       st.Latency.P50.Microseconds(),
		P95Micros:       st.Latency.P95.Microseconds(),
		P99Micros:       st.Latency.P99.Microseconds(),
		MeanMicros:      st.Latency.Mean.Microseconds(),
	}, nil
}

// runReadOnly runs Order-Status and Stock-Level alone under cc, grouped,
// on the charged device: with no writer's record pending, none of them
// may wait for the log or force it.
func runReadOnly(seed uint64, cc db.CCMode) (readOnlyCell, error) {
	dev := &sleepLog{}
	d, err := db.OpenWith(db.Config{Warehouses: 1, PageSize: 4096, BufferPages: commitPoolPages, CC: cc},
		db.Options{GroupCommit: batched, LogHook: dev})
	if err != nil {
		return readOnlyCell{}, err
	}
	if err := d.Load(seed); err != nil {
		return readOnlyCell{}, err
	}
	dev.cost.Store(int64(commitForceCost))
	mix := tpcc.Mix{core.TxnOrderStatus: 0.5, core.TxnStockLevel: 0.5}
	st, err := db.RunConcurrentPolicy(d, seed+2, mix, readOnlyTxns, 2)
	if err != nil {
		return readOnlyCell{}, err
	}
	return readOnlyCell{CC: cc.String(), Commits: st.Commits, LogWaits: st.LogWaits, LogForces: dev.forces.Load()}, nil
}

// checkCommitReport applies the commit gate to a report, live or checked
// in: at every worker count, without batching every writing commit forces
// exactly once; with it, two or more workers share forces; sharing costs
// no throughput; and both modes acknowledge every transaction. In every
// mode, read-only commits neither wait for the log nor force it.
func checkCommitReport(rep commitReport) error {
	if want := commitForceCost.Microseconds(); rep.ForceUS != want {
		return fmt.Errorf("log_force_us %d, want %d", rep.ForceUS, want)
	}
	type key struct {
		workers int
		grouped bool
	}
	cells := map[key]commitCell{}
	for _, c := range rep.Cells {
		cells[key{c.Workers, c.Grouped}] = c
	}
	for _, workers := range []int{1, 2, 4, 8} {
		u, uok := cells[key{workers, false}]
		g, gok := cells[key{workers, true}]
		if !uok || !gok {
			return fmt.Errorf("missing grouped/ungrouped pair at %d workers", workers)
		}
		if u.ForcesPerCommit != 1 {
			return fmt.Errorf("ungrouped forces per writing commit = %.4f at %d workers, want exactly 1",
				u.ForcesPerCommit, workers)
		}
		if workers >= 2 && g.ForcesPerCommit >= 1 {
			return fmt.Errorf("grouped forces per writing commit = %.4f at %d workers, want < 1",
				g.ForcesPerCommit, workers)
		}
		if g.TpmC < 0.9*u.TpmC {
			return fmt.Errorf("grouped tpmC %.0f < 0.9 x ungrouped %.0f at %d workers",
				g.TpmC, u.TpmC, workers)
		}
		if u.Acked != int64(rep.Txns) || g.Acked != int64(rep.Txns) {
			return fmt.Errorf("acknowledged %d ungrouped and %d grouped of %d transactions at %d workers",
				u.Acked, g.Acked, rep.Txns, workers)
		}
	}
	readOnly := map[string]readOnlyCell{}
	for _, c := range rep.ReadOnly {
		readOnly[c.CC] = c
	}
	for _, cc := range ccModes {
		c, ok := readOnly[cc.String()]
		if !ok {
			return fmt.Errorf("missing read-only run under %s", cc)
		}
		if c.Commits != readOnlyTxns || c.LogWaits != 0 || c.LogForces != 0 {
			return fmt.Errorf("%s: %d read-only commits waited for the log %d times and forced it %d times, want %d, 0, 0",
				cc, c.Commits, c.LogWaits, c.LogForces, readOnlyTxns)
		}
	}
	return nil
}
