package bench

import (
	"fmt"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

// DefaultSeed and DefaultSeconds are the inputs the frozen output values
// below were taken at.
const (
	DefaultSeed    = 1993
	DefaultSeconds = 10
)

// minMeasured is the shortest measured window: with fewer transactions the
// all-types p99 would not have ten samples beyond it.
const minMeasured = 1000

// Workload is one closed-loop, zero-think-time traffic mix and the database
// it runs against. Every field is frozen with the benchmark.
type Workload struct {
	Name string
	Why  string

	Warehouses  int
	BufferPages int
	CC          db.CCMode
	Mix         tpcc.Mix
	Workers     int
	// PageCost and ForceCost are the device's service times; zero means the
	// device costs nothing.
	PageCost  time.Duration
	ForceCost time.Duration
	Group     wal.GroupConfig

	// Warmup transactions run before the window at no device cost.
	Warmup int
	// SegTxns is the segment length; TxnsPerSecond × seconds is the measured
	// window, rounded up to whole segments. The window is a transaction
	// count, never a duration: a count repeats, a duration does not. The
	// rates make a 10 s run last 6-10 s on the baseline sandbox, except
	// io-bound's: it completes 120 transactions a second, and 1 200 of them
	// are too few to tell two runs apart (seeds alone moved its payment
	// latency 17% and its p99 17%), so its window is 3 000 and lasts 25 s.
	SegTxns       int
	TxnsPerSecond int

	// Frozen pins the single-worker workloads' outputs at DefaultSeed and
	// DefaultSeconds; nil where two workers make the schedule vary.
	Frozen *Exact
}

// Normalised reports whether the workload's wall times are CPU-bound and so
// multiplied by the speed factor. Device sleeps do not scale with CPU speed.
func (w Workload) Normalised() bool { return w.PageCost == 0 && w.ForceCost == 0 }

// Measured returns the window length in transactions for a run of the given
// nominal length.
func (w Workload) Measured(seconds int) int {
	n := w.TxnsPerSecond * seconds
	if n < minMeasured {
		n = minMeasured
	}
	return (n + w.SegTxns - 1) / w.SegTxns * w.SegTxns
}

// cliGroupCommit is group commit as cmd/tpcc-engine switches it on by
// default.
var cliGroupCommit = wal.GroupConfig{MaxBatch: 64, MaxHold: 200 * time.Microsecond, AdaptiveHold: true}

// readHeavyMix is 10/10/39/1/40: the read-only transactions carry the load.
// Delivery is held at 1% so that the ten orders each one delivers balance
// the New-Orders: a mix that drains the new-order relation empties its index
// after some 90 000 transactions, and index.BTree.Min panics on a tree that
// deletes have emptied (an engine defect this benchmark may not fix).
var readHeavyMix = tpcc.Mix{
	core.TxnNewOrder: 0.10, core.TxnPayment: 0.10, core.TxnOrderStatus: 0.39,
	core.TxnDelivery: 0.01, core.TxnStockLevel: 0.40,
}

// Workloads lists the benchmark's workloads in the order they run.
var Workloads = []Workload{
	{
		Name:       "cpu-resident",
		Why:        "W=1, pool larger than the database, free device, 2pl, 1 worker: all time is db procedures, index, uncontended lock, heap and wal append; a CPU-path change shows here, an I/O-path change must not",
		Warehouses: 1, BufferPages: 65536, CC: db.CC2PL, Mix: tpcc.DefaultMix(), Workers: 1,
		Warmup: 5000, SegTxns: 500, TxnsPerSecond: 10000,
		Frozen: &Exact{StateHash: 0xd720751e2e3e9e5a, PageIOs: 20503, LogBytes: 575198665, LockAcquires: 4257390, Acked: 100000},
	},
	{
		Name:       "io-bound",
		Why:        "W=2, pool a third of the database, 1 ms per page read, page write and log force, 2pl, 2 workers: bufmgr miss/evict/flush, storage and wal force dominate; a CPU-path change must not move it",
		Warehouses: 2, BufferPages: 12288, CC: db.CC2PL, Mix: tpcc.DefaultMix(), Workers: 2,
		PageCost: time.Millisecond, ForceCost: time.Millisecond, Group: cliGroupCommit,
		Warmup: 5000, SegTxns: 100, TxnsPerSecond: 300,
	},
	{
		Name:       "contended",
		Why:        "W=1, resident pool, free pages, 1 ms log force, 2pl, 2 workers on one warehouse: locks are held across the force, so lock waits and the group-commit leader set throughput and tail",
		Warehouses: 1, BufferPages: 65536, CC: db.CC2PL, Mix: tpcc.DefaultMix(), Workers: 2,
		ForceCost: time.Millisecond, Group: cliGroupCommit,
		Warmup: 2000, SegTxns: 500, TxnsPerSecond: 800,
	},
	{
		Name:       "read-heavy",
		Why:        "W=1, resident pool, free device, mvcc, mix 10/10/39/1/40, 1 worker: index range scans, snapshot reads and read-only commits that skip the wal; a write-path gain that costs readers shows here",
		Warehouses: 1, BufferPages: 65536, CC: db.CCMVCC, Mix: readHeavyMix, Workers: 1,
		Warmup: 5000, SegTxns: 500, TxnsPerSecond: 12000,
		Frozen: &Exact{StateHash: 0x77c10c0721211481, PageIOs: 14605, LogBytes: 153225029, LockAcquires: 468369, Acked: 120000},
	},
}

// WorkloadByName finds a workload.
func WorkloadByName(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q", name)
}

// Metric declares one reported number.
type Metric struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which an end-to-end
	// metric may worsen before a change is a regression; per-layer metrics
	// have none.
	Bound float64
}

// EndToEnd lists what a user of the engine sees. Every workload reports
// every one of them, from its untraced pass.
//
// The bounds are what the sandbox's noise allows, not what one would wish:
// the CPU-bound timings of identical code spread 3-10% between runs even
// after speed normalisation (process CPU on the device-bound workloads up to
// 17%), and the acceptance check refuses a benchmark whose spread over ten
// runs exceeds a bound once in 72 tries. README.md records the spreads
// measured.
var EndToEnd = []Metric{
	{"tpmc", "1/min", "higher", 0.25},
	{"neworder_iqm_us", "us", "lower", 0.25},
	{"neworder_p95_us", "us", "lower", 0.25},
	{"payment_iqm_us", "us", "lower", 0.25},
	{"lat_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_txn", "us", "lower", 0.25},
	{"page_ios_per_txn", "1", "lower", 0.15},
	{"log_bytes_per_txn", "B", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// PerLayer lists the single-layer numbers, named after the engine package
// they describe. Every workload reports every one of them, from its traced
// pass; none is gated.
var PerLayer = []Metric{
	{"db.p50_us.neworder", "us", "lower", 0},
	{"db.p50_us.payment", "us", "lower", 0},
	{"db.p50_us.orderstatus", "us", "lower", 0},
	{"db.p50_us.delivery", "us", "lower", 0},
	{"db.p50_us.stocklevel", "us", "lower", 0},
	{"db.self_us.neworder", "us", "lower", 0},
	{"db.self_us.payment", "us", "lower", 0},
	{"db.self_us.orderstatus", "us", "lower", 0},
	{"db.self_us.delivery", "us", "lower", 0},
	{"db.self_us.stocklevel", "us", "lower", 0},
	{"db.self_share", "1", "lower", 0},
	{"device.share", "1", "lower", 0},
	{"wal.force_share", "1", "lower", 0},
	{"wait.share", "1", "lower", 0},
	{"db.retries_per_txn", "1", "lower", 0},
	{"db.sheds", "count", "lower", 0},
	{"index.get_ns", "ns", "lower", 0},
	{"index.set_ns", "ns", "lower", 0},
	{"index.seek20_ns", "ns", "lower", 0},
	{"lock.acquires_per_txn", "1", "lower", 0},
	{"lock.waits_per_txn", "1", "lower", 0},
	{"lock.deadlocks", "count", "lower", 0},
	{"lock.acquire40_release_ns", "ns", "lower", 0},
	{"bufmgr.refs_per_txn", "1", "lower", 0},
	{"bufmgr.miss_rate", "1", "lower", 0},
	{"bufmgr.miss_rate.stock", "1", "lower", 0},
	{"bufmgr.miss_rate.customer", "1", "lower", 0},
	{"bufmgr.miss_rate.order-line", "1", "lower", 0},
	{"bufmgr.miss_rate.item", "1", "lower", 0},
	{"bufmgr.evicts_per_txn", "1", "lower", 0},
	{"bufmgr.flushes_per_txn", "1", "lower", 0},
	{"bufmgr.pin_hit_ns", "ns", "lower", 0},
	{"bufmgr.pin_miss_ns", "ns", "lower", 0},
	{"storage.reads_per_txn", "1", "lower", 0},
	{"storage.writes_per_txn", "1", "lower", 0},
	{"device.read_us_mean", "us", "lower", 0},
	{"device.write_us_mean", "us", "lower", 0},
	{"storage.heap_read_ns", "ns", "lower", 0},
	{"storage.heap_update_ns", "ns", "lower", 0},
	{"storage.heap_insert_ns", "ns", "lower", 0},
	{"wal.forces_per_commit", "1", "lower", 0},
	{"wal.batch_mean", "1", "higher", 0},
	{"wal.force_us_mean", "us", "lower", 0},
	{"wal.bytes_per_txn", "B", "lower", 0},
	{"wal.append_ns", "ns", "lower", 0},
	{"wal.commit_ns", "ns", "lower", 0},
	{"wal.recover_s", "s", "lower", 0},
	{"wal.recover_applied", "count", "lower", 0},
	{"mvcc.write_conflicts_per_txn", "1", "lower", 0},
	{"mvcc.version_chains_end", "count", "lower", 0},
	{"mvcc.read_ns", "ns", "lower", 0},
	{"mvcc.write_commit_ns", "ns", "lower", 0},
	{"go.allocs_per_txn", "1", "lower", 0},
	{"go.alloc_bytes_per_txn", "B", "lower", 0},
	{"go.gc_us_per_txn", "us", "lower", 0},
	{"stall_share", "1", "lower", 0},
	{"raw.tpmc", "1/min", "higher", 0},
	{"raw.neworder_p50_us", "us", "lower", 0},
	{"raw.window_tpmc", "1/min", "higher", 0},
	{"calib.factor_p50", "1", "higher", 0},
	{"calib.factor_spread", "1", "lower", 0},
	{"trace.overhead", "1", "higher", 0},
}
