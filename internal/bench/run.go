package bench

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// Options selects one pass over one workload.
type Options struct {
	Seed uint64
	// Measured is the window length in transactions, a multiple of the
	// workload's SegTxns (Workload.Measured gives the frozen value).
	Measured int
	// Trace selects the traced pass: the first quarter of the window runs
	// untraced as the reference, the rest records spans, and the database is
	// then crashed and recovered.
	Trace bool
	// Setups is how many times the database is set up; setup_s is their
	// median and the window runs on the last one.
	Setups int
	// TraceOut, when set, receives the traced pass's spans as JSON lines.
	TraceOut io.Writer
}

// Result is what one pass produced.
type Result struct {
	Workload  string
	Attempted int64
	Failed    int64
	// Problems lists failed output checks; empty means the outputs were
	// correct.
	Problems []string
	// Values holds every metric this pass could compute, by name.
	Values map[string]float64
	// Samples holds the sample count behind each latency metric.
	Samples map[string]int
	// Exact holds the integers that repeat bit for bit at one worker.
	Exact Exact
}

// Exact is a window's outcome in whole numbers.
type Exact struct {
	StateHash    uint64 `json:"state_hash"`
	PageIOs      int64  `json:"page_ios"`
	LogBytes     int64  `json:"log_bytes"`
	LockAcquires int64  `json:"lock_acquires"`
	Acked        int64  `json:"acked"`
}

// Correct reports whether every output check passed.
func (r *Result) Correct() bool { return len(r.Problems) == 0 }

// gcEverySegs is the collector's schedule. A run switches Go's own pacing
// off and collects between segments instead, every gcEverySegs of them,
// outside the timed region: when a concurrent cycle happens to start decides
// how much dead log buffer is resident and whose segment pays for the
// marking, and neither repeats. The cost of collecting is still measured
// (go.gc_us_per_txn), only not mixed into the transactions it interrupts.
const gcEverySegs = 8

// env is one database set up for a workload.
type env struct {
	wl      Workload
	dev     *Device
	d       *db.DB
	runners []*db.Runner
	gcUS    float64 // time spent in the window's scheduled collections
}

// setUp opens, loads and warms a database and returns it with the time that
// took, in seconds at reference speed. The device charges nothing yet.
func setUp(wl Workload, seed uint64, tr *tracer) (*env, float64, error) {
	calib0 := calibrate()
	t0 := time.Now()
	dev, err := NewDevice(storage.NewMemDisk(), wl.PageCost, wl.ForceCost)
	if err != nil {
		return nil, 0, err
	}
	dev.tr = tr
	d, err := db.OpenWith(
		db.Config{Warehouses: wl.Warehouses, PageSize: 4096, BufferPages: wl.BufferPages, CC: wl.CC},
		db.Options{Disk: dev, LogHook: dev, GroupCommit: wl.Group})
	if err != nil {
		return nil, 0, err
	}
	if err := d.Load(seed); err != nil {
		return nil, 0, fmt.Errorf("bench: load: %w", err)
	}
	e := &env{wl: wl, dev: dev, d: d}
	seeds := rng.New(seed)
	for w := 0; w < wl.Workers; w++ {
		e.runners = append(e.runners, db.NewRunner(d, seeds.Uint64(), wl.Mix))
	}
	errs := make([]error, wl.Workers)
	var wg sync.WaitGroup
	for w, rn := range e.runners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = rn.Run(wl.Warmup / wl.Workers)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, 0, fmt.Errorf("bench: warm-up: %w", err)
		}
	}
	wall := time.Since(t0).Seconds()
	return e, wall * speedFactor((calib0+calibrate())/2), nil
}

// counters is a snapshot of every public engine counter the metrics use.
type counters struct {
	store                     storage.StoreStats
	buf                       bufmgr.Stats
	rel                       map[core.Relation]bufmgr.Stats
	lockAcq, lockWaits, dlock int64
	forces, commits, aborts   int64
	conflicts                 int64
	logBytes                  int64
	retries, sheds            int64
	acked                     [core.NumTxnTypes]int64
	mem                       runtime.MemStats
}

func (e *env) snapshot() counters {
	c := counters{
		store: e.d.StoreStats(), buf: e.d.BufferStats(), rel: e.d.RelationStats(),
		forces: e.d.LogForces(), commits: e.d.Commits(), aborts: e.d.Aborts(),
		conflicts: e.d.WriteConflicts(), logBytes: e.dev.LogBytes(),
	}
	c.lockAcq, c.lockWaits, c.dlock = e.d.LockCounts()
	for _, rn := range e.runners {
		c.retries += rn.Retries()
		c.sheds += rn.Sheds()
		for t, n := range rn.Counts() {
			c.acked[t] += n
		}
	}
	runtime.ReadMemStats(&c.mem)
	return c
}

// sample is one acknowledged transaction's response time around
// Runner.RunOne, retries and backoff included.
type sample struct {
	typ core.TxnType
	seg int32
	us  float64
}

// workerLog is what one worker recorded over a window.
type workerLog struct {
	samples []sample
	failed  int64
	err     error
	// tracedCPUUS is the CPU time the worker's pinned thread spent in traced
	// segments, less what the device's sleeps cost it.
	tracedCPUUS float64
}

// work runs worker w's share of one segment: transactions drawn from the
// segment's shared counter until it is used up.
//
// Only a traced pass pins workers to OS threads, which is what lets the
// device tell which worker it is serving and makes a thread's CPU time the
// worker's own. Pinning changes how the scheduler hands a woken worker its
// processor (on contended: New-Order typical +9%, all-types p99 -28%), so
// the untraced pass, whose numbers a user would see, runs unpinned.
func (e *env) work(w, seg int, claimed *atomic.Int64, log *workerLog, tr *tracer) {
	tracing := false
	if tr != nil {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		e.dev.bind(w)
		if tracing = tr.on.Load(); tracing {
			cpu0, sleep0 := threadCPUMicros(), e.dev.sleepCPU[w].us
			defer func() { log.tracedCPUUS += threadCPUMicros() - cpu0 - (e.dev.sleepCPU[w].us - sleep0) }()
		}
	}
	rn := e.runners[w]
	for claimed.Add(1) <= int64(e.wl.SegTxns) {
		sheds := rn.Sheds()
		if tracing {
			tr.open(w, seg)
		}
		t0 := time.Now()
		typ, err := rn.RunOne()
		t1 := time.Now()
		if tracing {
			tr.close(w, typ, t0, t1)
		}
		if err != nil {
			log.err = err
			claimed.Store(math.MaxInt32) // stop the other workers
			return
		}
		if rn.Sheds() != sheds {
			log.failed++
			continue
		}
		log.samples = append(log.samples, sample{typ: typ, seg: int32(seg), us: float64(t1.Sub(t0).Nanoseconds()) / 1e3})
	}
}

// runWindow runs nSegs segments. Segments from tracedFrom on record spans
// into tr; tr is nil for an untraced window.
func (e *env) runWindow(nSegs, tracedFrom int, tr *tracer) ([]segment, []workerLog, error) {
	segs := make([]segment, 0, nSegs)
	logs := make([]workerLog, e.wl.Workers)
	for w := range logs {
		logs[w].samples = make([]sample, 0, nSegs*e.wl.SegTxns)
	}
	for s := 0; s < nSegs; s++ {
		if tr != nil {
			tr.on.Store(s >= tracedFrom)
		}
		if s%gcEverySegs == 0 {
			t0 := time.Now()
			runtime.GC()
			e.gcUS += float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		var claimed atomic.Int64
		var wg sync.WaitGroup
		calibUS := calibrate()
		cpu0 := processCPUMicros()
		t0 := time.Now()
		for w := 1; w < e.wl.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				e.work(w, s, &claimed, &logs[w], tr)
			}()
		}
		e.work(0, s, &claimed, &logs[0], tr)
		wg.Wait()
		wallUS := float64(time.Since(t0).Nanoseconds()) / 1e3
		segs = append(segs, segment{txns: e.wl.SegTxns, wallUS: wallUS,
			cpuUS: processCPUMicros() - cpu0, calibUS: calibUS})
		for w := range logs {
			if logs[w].err != nil {
				return nil, nil, fmt.Errorf("bench: %s segment %d worker %d: %w", e.wl.Name, s, w, logs[w].err)
			}
		}
	}
	if tr != nil {
		tr.on.Store(false)
	}
	return segs, logs, nil
}

// Run makes one pass over wl: set-up, the measured window, the output
// checks, and on a traced pass a crash and recovery.
func Run(wl Workload, opts Options) (*Result, error) {
	if opts.Measured <= 0 || opts.Measured%wl.SegTxns != 0 {
		return nil, fmt.Errorf("bench: window of %d transactions is not whole segments of %d", opts.Measured, wl.SegTxns)
	}
	if wl.Workers > maxWorkers {
		return nil, fmt.Errorf("bench: %d workers, at most %d", wl.Workers, maxWorkers)
	}
	nSegs := opts.Measured / wl.SegTxns
	tracedFrom := nSegs
	var tr *tracer
	if opts.Trace {
		tracedFrom = nSegs / 4
		// A transaction span and, at most times, a force span per
		// transaction; device-bound workloads add a few page spans but run
		// far fewer transactions. Beyond the estimate the slices grow.
		tr = newTracer(3 * opts.Measured)
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var e *env
	setups := make([]float64, 0, opts.Setups)
	for i := 0; i < max(opts.Setups, 1); i++ {
		// Drop the previous set-up's database first, outside the timing:
		// collecting it is a cost of repeating set-up, not of set-up.
		e = nil
		debug.FreeOSMemory()
		var s float64
		var err error
		if e, s, err = setUp(wl, opts.Seed, tr); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}

	before := e.snapshot()
	e.dev.SetCharging(true)
	segs, logs, err := e.runWindow(nSegs, tracedFrom, tr)
	e.dev.SetCharging(false)
	if err != nil {
		return nil, err
	}
	after := e.snapshot()
	if !opts.Trace {
		// The closing checkpoint writes back what the window dirtied, so
		// that a resident workload's page I/O is the write-back it owes, not
		// zero. The traced pass leaves the pool dirty for the crash instead,
		// and its storage.* counts are the window's alone.
		if err := e.d.Checkpoint(); err != nil {
			return nil, fmt.Errorf("bench: closing checkpoint: %w", err)
		}
		after.store = e.d.StoreStats()
	}

	r := &Result{Workload: wl.Name, Attempted: int64(opts.Measured),
		Values: map[string]float64{}, Samples: map[string]int{}}
	for _, l := range logs {
		r.Failed += l.failed
	}
	r.Values["setup_s"] = Median(setups)
	e.windowMetrics(r, segs, logs, tracedFrom)
	e.counterMetrics(r, before, after)
	e.check(r, opts)
	if opts.Trace {
		e.traceMetrics(r, tr, segs, logs, tracedFrom)
		e.crashAndRecover(r)
		for name, v := range layerPass(opts.Seed) {
			r.Values[name] = v
		}
		if opts.TraceOut != nil {
			if err := tr.write(opts.TraceOut); err != nil {
				return nil, err
			}
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.Values["peak_rss_mb"] = rss
	if !r.Correct() {
		r.Failed++ // a failed output check counts against the run
	}
	return r, nil
}

// windowMetrics fills the timing metrics. Throughput, CPU and the audit
// figures come from the first untraced segments, which on an untraced pass
// is all of them and on a traced pass the reference quarter; the latency
// figures use every sample of the pass.
func (e *env) windowMetrics(r *Result, segs []segment, logs []workerLog, untraced int) {
	norm := e.wl.Normalised()
	t, raw := summarise(segs[:untraced], norm), summarise(segs[:untraced], false)
	var byType [core.NumTxnTypes]latencies
	var all, rawNewOrder latencies
	for _, l := range logs {
		for _, s := range l.samples {
			us := s.us * segs[s.seg].factor(norm)
			byType[s.typ] = append(byType[s.typ], us)
			all = append(all, us)
			if s.typ == core.TxnNewOrder {
				rawNewOrder = append(rawNewOrder, s.us)
			}
		}
	}
	// The mix's own New-Order share, not the window's realised one: which
	// types a seed happens to draw is not the engine's doing.
	share := e.wl.Mix.Fraction(core.TxnNewOrder)
	r.Values["tpmc"] = tpmC(share, t.perTxnUS)
	r.Values["raw.tpmc"] = tpmC(share, raw.perTxnUS)
	r.Values["raw.window_tpmc"] = share * 60e6 * float64(raw.txns) / raw.windowUS
	r.Values["raw.neworder_p50_us"] = rawNewOrder.p(0.5)
	for typ, l := range byType {
		name := "db.p50_us." + txnName(core.TxnType(typ))
		r.Values[name], r.Samples[name] = l.p(0.5), len(l)
	}
	newOrder, payment := byType[core.TxnNewOrder], byType[core.TxnPayment]
	r.Values["neworder_iqm_us"], r.Samples["neworder_iqm_us"] = newOrder.iqm(), len(newOrder)
	r.Values["neworder_p95_us"], r.Samples["neworder_p95_us"] = newOrder.p(0.95), len(newOrder)
	r.Values["payment_iqm_us"], r.Samples["payment_iqm_us"] = payment.iqm(), len(payment)
	r.Values["lat_p99_us"], r.Samples["lat_p99_us"] = all.p(0.99), len(all)
	r.Values["cpu_us_per_txn"] = t.cpuPerTxnUS
	r.Values["stall_share"] = t.stallShare
	r.Values["calib.factor_p50"] = t.factorP50
	r.Values["calib.factor_spread"] = t.factorSpread
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// counterMetrics fills the metrics that are differences of engine counters
// over the whole window, per acknowledged transaction.
func (e *env) counterMetrics(r *Result, b, a counters) {
	var acked, writers int64
	for t := range a.acked {
		n := a.acked[t] - b.acked[t]
		acked += n
		if t := core.TxnType(t); t != core.TxnOrderStatus && t != core.TxnStockLevel {
			writers += n
		}
	}
	pageIOs := a.store.Reads - b.store.Reads + a.store.Writes - b.store.Writes
	r.Exact.Acked = acked
	r.Exact.PageIOs = pageIOs
	r.Exact.LogBytes = a.logBytes - b.logBytes
	r.Exact.LockAcquires = a.lockAcq - b.lockAcq

	v := r.Values
	v["page_ios_per_txn"] = ratio(pageIOs, acked)
	v["log_bytes_per_txn"] = ratio(r.Exact.LogBytes, acked)
	v["wal.bytes_per_txn"] = v["log_bytes_per_txn"]
	v["storage.reads_per_txn"] = ratio(a.store.Reads-b.store.Reads, acked)
	v["storage.writes_per_txn"] = ratio(a.store.Writes-b.store.Writes, acked)
	v["lock.acquires_per_txn"] = ratio(r.Exact.LockAcquires, acked)
	v["lock.waits_per_txn"] = ratio(a.lockWaits-b.lockWaits, acked)
	v["lock.deadlocks"] = float64(a.dlock - b.dlock)
	v["db.retries_per_txn"] = ratio(a.retries-b.retries, acked)
	v["db.sheds"] = float64(a.sheds - b.sheds)

	buf := bufmgr.Stats{Hits: a.buf.Hits - b.buf.Hits, Misses: a.buf.Misses - b.buf.Misses}
	v["bufmgr.refs_per_txn"] = ratio(buf.Accesses(), acked)
	v["bufmgr.miss_rate"] = buf.MissRate()
	v["bufmgr.evicts_per_txn"] = ratio(a.buf.Evicts-b.buf.Evicts, acked)
	v["bufmgr.flushes_per_txn"] = ratio(a.buf.Flushes-b.buf.Flushes, acked)
	for _, rel := range []core.Relation{core.Stock, core.Customer, core.OrderLine, core.Item} {
		s := bufmgr.Stats{Hits: a.rel[rel].Hits - b.rel[rel].Hits, Misses: a.rel[rel].Misses - b.rel[rel].Misses}
		v["bufmgr.miss_rate."+rel.String()] = s.MissRate()
	}

	records := a.commits - b.commits + a.aborts - b.aborts
	forces := a.forces - b.forces
	v["wal.forces_per_commit"] = ratio(forces, records)
	// Records a force covered: under mvcc the read-only commits write none.
	forced := records
	if e.wl.CC != db.CC2PL {
		forced = writers + a.aborts - b.aborts
	}
	v["wal.batch_mean"] = ratio(forced, forces)
	v["mvcc.write_conflicts_per_txn"] = ratio(a.conflicts-b.conflicts, acked)
	v["mvcc.version_chains_end"] = float64(e.d.VersionChains())

	v["go.allocs_per_txn"] = ratio(int64(a.mem.Mallocs-b.mem.Mallocs), acked)
	v["go.alloc_bytes_per_txn"] = ratio(int64(a.mem.TotalAlloc-b.mem.TotalAlloc), acked)
	v["go.gc_us_per_txn"] = e.gcUS / float64(acked)
}

// traceMetrics fills the metrics that come from spans: per-type self time,
// and where the workers' time went as shares that sum to one.
func (e *env) traceMetrics(r *Result, tr *tracer, segs []segment, logs []workerLog, tracedFrom int) {
	norm := e.wl.Normalised()
	v := r.Values
	var txnNS int64
	var cpuUS float64
	for typ := core.TxnType(0); typ < core.NumTxnTypes; typ++ {
		var self latencies
		for w := range tr.w {
			for _, s := range tr.w[w].selfUS[typ] {
				self = append(self, s.us*segs[s.seg].factor(norm))
			}
		}
		v["db.self_us."+txnName(typ)] = self.p(0.5)
	}
	for w := range tr.w {
		txnNS += tr.w[w].txnNS
	}
	for _, l := range logs {
		cpuUS += l.tracedCPUUS
	}
	readNS, reads := tr.total(spanDeviceRead)
	writeNS, writes := tr.total(spanDeviceWrite)
	forceNS, forces := tr.total(spanWALForce)
	// On-CPU time is the workers' own threads' CPU; what is neither that nor
	// inside the device or a force is waiting: for a lock, for the
	// group-commit leader, in retry backoff, or for a processor.
	v["db.self_share"] = cpuUS * 1e3 / float64(txnNS)
	v["device.share"] = float64(readNS+writeNS) / float64(txnNS)
	v["wal.force_share"] = float64(forceNS) / float64(txnNS)
	v["wait.share"] = 1 - v["db.self_share"] - v["device.share"] - v["wal.force_share"]
	v["device.read_us_mean"] = ratio(readNS, reads) / 1e3
	v["device.write_us_mean"] = ratio(writeNS, writes) / 1e3
	v["wal.force_us_mean"] = ratio(forceNS, forces) / 1e3

	traced := summarise(segs[tracedFrom:], norm)
	ref := summarise(segs[:tracedFrom], norm)
	v["trace.overhead"] = ref.perTxnUS / traced.perTxnUS
}

// cardinalities checks the relation sizes the transaction counts imply:
// the static relations keep their loaded size, every acknowledged New-Order
// left one order and its lines, every acknowledged Payment one history row.
func (e *env) cardinalities() error {
	var acked [core.NumTxnTypes]int64
	for _, rn := range e.runners {
		for t, n := range rn.Counts() {
			acked[t] += n
		}
	}
	w := int64(e.wl.Warehouses)
	orders := w*tpcc.DistrictsPerWarehouse*tpcc.CustomersPerDistrict + acked[core.TxnNewOrder]
	want := map[core.Relation]int64{
		core.Warehouse: w,
		core.District:  w * tpcc.DistrictsPerWarehouse,
		core.Customer:  w * tpcc.CustomersPerWarehouse,
		core.Stock:     w * tpcc.StockPerWarehouse,
		core.Item:      tpcc.ItemCount,
		core.Order:     orders,
		core.OrderLine: orders * tpcc.ItemsPerOrder,
		core.History:   acked[core.TxnPayment],
	}
	for _, rel := range core.Relations() {
		if n, ok := want[rel]; ok && e.d.Heap(rel).Live() != n {
			return fmt.Errorf("%s has %d rows, acknowledged transactions imply %d", rel, e.d.Heap(rel).Live(), n)
		}
	}
	return nil
}

// check runs the output checks on the quiesced database after the window.
func (e *env) check(r *Result, opts Options) {
	if err := e.d.CheckConsistency(); err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
	if err := e.cardinalities(); err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
	hash, err := e.d.StateHash()
	if err != nil {
		r.Problems = append(r.Problems, err.Error())
	}
	r.Exact.StateHash = hash
	if f := e.wl.Frozen; f != nil && opts.Seed == DefaultSeed && opts.Measured == e.wl.Measured(DefaultSeconds) && hash != f.StateHash {
		r.Problems = append(r.Problems, fmt.Sprintf("state hash %#x, frozen %#x", hash, f.StateHash))
	}
}

// crashAndRecover loses the buffer pool and replays the log: every
// acknowledged commit must still be there and the invariants must hold.
func (e *env) crashAndRecover(r *Result) {
	// Replay decodes the whole log into records; without the collector's own
	// pacing that garbage would stay resident until the run ends.
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	fail := func(err error) { r.Problems = append(r.Problems, "after recovery: "+err.Error()) }
	if err := e.d.Crash(); err != nil {
		fail(err)
		return
	}
	t0 := time.Now()
	if err := e.d.Recover(); err != nil {
		fail(err)
		return
	}
	r.Values["wal.recover_s"] = time.Since(t0).Seconds()
	r.Values["wal.recover_applied"] = float64(e.d.RecoveryStats().Applied)
	if err := e.d.CheckConsistency(); err != nil {
		fail(err)
	}
	if err := e.cardinalities(); err != nil {
		fail(err)
	}
	if hash, err := e.d.StateHash(); err != nil {
		fail(err)
	} else if hash != r.Exact.StateHash {
		fail(fmt.Errorf("state hash %#x, before the crash %#x", hash, r.Exact.StateHash))
	}
}
