package db

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/stats"
	"tpccmodel/internal/tpcc"
)

// The terminal's retry policy. A deadlock victim (ErrAborted) or a
// transient I/O error (storage.ErrTransientIO) is retried after an
// exponential backoff with jitter drawn from the runner's seeded
// generator; a transaction that exhausts its attempts is *shed* (counted
// and skipped) rather than failing the whole run, so a fault burst
// degrades throughput instead of killing workers.
const (
	// maxAttempts is the total number of tries per transaction.
	maxAttempts = 10
	// baseDelay is the first backoff step; the delay doubles each attempt
	// up to maxDelay, with jitter in [delay/2, delay].
	baseDelay = 50 * time.Microsecond
	maxDelay  = 5 * time.Millisecond
	// shedBudget is the number of *consecutive* shed transactions
	// tolerated before the run is declared wedged. Occasional sheds under
	// fault pressure are expected; an unbroken run of them means the
	// engine is no longer making progress.
	shedBudget = 1000
)

// System is what a Runner drives: the five procedures over warehouse ids
// 0..Warehouses()-1, and the one input draw that depends on where the
// system keeps its warehouses. A *Session (one engine instance) is one
// System; the shard package's cluster router is the other. A procedure
// whose failure wraps ErrUnavailable is shed at once, not retried.
type System interface {
	Warehouses() int
	// RemoteWarehouse draws, from r, the supplying warehouse of a remote
	// order line or the warehouse of a remote customer for a transaction
	// whose home warehouse is home.
	RemoteWarehouse(r *rng.RNG, home int64) int64
	NewOrder(NewOrderInput) (NewOrderResult, error)
	Payment(PaymentInput) error
	OrderStatus(OrderStatusInput) (OrderStatusResult, error)
	Delivery(DeliveryInput) (DeliveryResult, error)
	StockLevel(StockLevelInput) (int, error)
}

// ErrUnavailable reports that a node the transaction needs is down. No
// retry can help until the node is recovered, so a Runner sheds the
// transaction on the first such failure.
var ErrUnavailable = errors.New("db: a node the transaction needs is unavailable")

// Warehouses returns the instance's warehouse count.
func (s *Session) Warehouses() int { return s.d.cfg.Warehouses }

// RemoteWarehouse draws uniformly over the warehouses other than home
// (clauses 2.4.1.5 and 2.5.1.2); with one warehouse there is no other and
// nothing is drawn.
func (s *Session) RemoteWarehouse(r *rng.RNG, home int64) int64 {
	w := int64(s.d.cfg.Warehouses)
	if w == 1 {
		return home
	}
	v := r.Int63n(w - 1)
	if v >= home {
		v++
	}
	return v
}

// Runner is the TPC-C terminal: it generates transaction inputs with the
// paper's distributions and executes them against a System, retrying
// deadlock victims and transient I/O faults per the retry policy. Counters
// are atomic, so Counts/Retries/Sheds may be read while the runner is
// executing on another goroutine.
type Runner struct {
	sys        System
	warehouses int64
	r          *rng.RNG
	// jitter draws the backoff delays, apart from r: a retry must not
	// shift the inputs drawn after it.
	jitter  *rng.RNG
	custGen *nurand.Gen
	itemGen *nurand.Gen
	nameGen *nurand.Gen
	mix     tpcc.Mix

	// args holds the precomputed input for the current transaction. The
	// inputs are generated once, before the attempt loop, into fixed
	// per-runner storage (itemsBuf backs NewOrderInput.Items), so neither
	// generation nor retries allocate.
	args runnerArgs

	// RemoteStockProb and RemotePaymentProb default to the benchmark's
	// 0.01 and 0.15.
	RemoteStockProb   float64
	RemotePaymentProb float64

	counts  [core.NumTxnTypes]atomic.Int64
	retries atomic.Int64
	sheds   atomic.Int64
	// aborts counts failed attempts per type (each one an engine-level
	// rollback that was retried or shed); conflicts is the subset that
	// were snapshot write-write conflicts (ErrWriteConflict, mvcc/ssi)
	// and ssiAborts the subset that were dangerous-structure
	// serialization failures (ErrSSIAbort, ssi only).
	aborts    [core.NumTxnTypes]atomic.Int64
	conflicts [core.NumTxnTypes]atomic.Int64
	ssiAborts [core.NumTxnTypes]atomic.Int64
	// consecutiveSheds is only touched by the executing goroutine.
	consecutiveSheds int

	// latMu guards the latency accumulators so snapshots may be taken
	// while the runner is executing on another goroutine.
	latMu    sync.Mutex
	latHist  *stats.Histogram
	latW     stats.Welford
	typeHist [core.NumTxnTypes]*stats.Histogram
}

// runnerArgs is the Runner's reusable input storage, one field per
// transaction type plus the fixed backing array for New-Order items.
type runnerArgs struct {
	newOrder    NewOrderInput
	itemsBuf    [tpcc.ItemsPerOrder]OrderItem
	payment     PaymentInput
	orderStatus OrderStatusInput
	delivery    DeliveryInput
	stockLevel  StockLevelInput
}

// Latency-histogram geometry: 1µs buckets up to 50ms, overflow beyond
// (the exact maximum is tracked separately). All runners share it so
// per-worker histograms merge.
const (
	latBucketWidthMicros = 1
	latBuckets           = 50000
)

// NewRunner creates a runner over d, on a session of its own, with the
// given seed and mix.
func NewRunner(d *DB, seed uint64, mix tpcc.Mix) *Runner {
	return NewRunnerOn(d.NewSession(), seed, mix)
}

// NewRunnerOn creates a runner that drives sys.
func NewRunnerOn(sys System, seed uint64, mix tpcc.Mix) *Runner {
	r := rng.New(seed)
	rn := &Runner{
		sys:               sys,
		warehouses:        int64(sys.Warehouses()),
		r:                 r,
		jitter:            rng.NewStream(seed, 1),
		custGen:           nurand.NewGen(nurand.CustomerID, r),
		itemGen:           nurand.NewGen(nurand.ItemID, r),
		nameGen:           nurand.NewGen(nurand.Params{A: 255, X: 0, Y: tpcc.NamesPerDistrict - 1}, r),
		mix:               mix,
		RemoteStockProb:   tpcc.RemoteStockProb,
		RemotePaymentProb: tpcc.RemotePaymentProb,
		latHist:           stats.NewHistogram(latBucketWidthMicros, latBuckets),
	}
	for i := range rn.typeHist {
		rn.typeHist[i] = stats.NewHistogram(latBucketWidthMicros, latBuckets)
	}
	return rn
}

// loadCounts snapshots one of the runner's per-type atomic counters.
func loadCounts(a *[core.NumTxnTypes]atomic.Int64) (out [core.NumTxnTypes]int64) {
	for i := range out {
		out[i] = a[i].Load()
	}
	return out
}

// Counts returns per-type executed (acknowledged) transaction counts.
func (rn *Runner) Counts() [core.NumTxnTypes]int64 { return loadCounts(&rn.counts) }

// Retries returns the number of retries performed (deadlock victims plus
// transient I/O failures).
func (rn *Runner) Retries() int64 { return rn.retries.Load() }

// Aborts returns per-type failed-attempt counts: every retriable failure
// the runner observed, whether it was retried or shed. Each one is an
// engine-level rollback.
func (rn *Runner) Aborts() [core.NumTxnTypes]int64 { return loadCounts(&rn.aborts) }

// Conflicts returns per-type snapshot write-write conflict counts — the
// subset of Aborts caused by first-committer-wins validation. Always zero
// under 2PL.
func (rn *Runner) Conflicts() [core.NumTxnTypes]int64 { return loadCounts(&rn.conflicts) }

// SSIAborts returns per-type dangerous-structure abort counts — the
// subset of Aborts caused by SSI validation. Always zero outside CCSSI.
// TPC-C is serializable under plain SI, so on this workload every one of
// these is a false positive of the conservative two-flag tracking.
func (rn *Runner) SSIAborts() [core.NumTxnTypes]int64 { return loadCounts(&rn.ssiAborts) }

// Sheds returns the number of transactions dropped: after exhausting their
// retry attempts, or at once because a node they needed was down
// (ErrUnavailable).
func (rn *Runner) Sheds() int64 { return rn.sheds.Load() }

// LatencyStats summarizes acknowledged-transaction response time: the
// interval from input generation to commit acknowledgment, including
// retries and backoff. Quantiles come from a 1µs-bucket histogram; mean
// and standard deviation from a Welford accumulator.
type LatencyStats struct {
	N             int64
	Mean, StdDev  time.Duration
	P50, P95, P99 time.Duration
	Max           time.Duration
}

func (ls LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		ls.N, ls.Mean.Round(time.Microsecond), ls.P50, ls.P95, ls.P99, ls.Max)
}

// recordLatency folds one acknowledged transaction's response time into
// the runner's accumulators (overall and per-type).
func (rn *Runner) recordLatency(typ core.TxnType, d time.Duration) {
	us := d.Microseconds()
	if us < 0 {
		us = 0
	}
	rn.latMu.Lock()
	rn.latHist.Add(us)
	rn.latW.Add(float64(us))
	rn.typeHist[typ].Add(us)
	rn.latMu.Unlock()
}

// Latency returns a snapshot of the runner's latency statistics.
func (rn *Runner) Latency() LatencyStats {
	h := stats.NewHistogram(latBucketWidthMicros, latBuckets)
	var w stats.Welford
	rn.mergeLatencyInto(h, &w)
	return summarizeLatency(h, w)
}

// mergeLatencyInto folds the runner's accumulators into shared ones.
func (rn *Runner) mergeLatencyInto(h *stats.Histogram, w *stats.Welford) {
	rn.latMu.Lock()
	defer rn.latMu.Unlock()
	h.Merge(rn.latHist)
	w.Merge(rn.latW)
}

// mergeTypeLatencyInto folds the runner's per-type histograms into shared
// ones (one per transaction type).
func (rn *Runner) mergeTypeLatencyInto(hs *[core.NumTxnTypes]*stats.Histogram) {
	rn.latMu.Lock()
	defer rn.latMu.Unlock()
	for i := range hs {
		hs[i].Merge(rn.typeHist[i])
	}
}

func summarizeLatency(h *stats.Histogram, w stats.Welford) LatencyStats {
	us := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Microsecond))
	}
	return LatencyStats{
		N:      w.N(),
		Mean:   us(w.Mean()),
		StdDev: us(w.StdDev()),
		P50:    us(h.Quantile(0.50)).Round(time.Microsecond),
		P95:    us(h.Quantile(0.95)).Round(time.Microsecond),
		P99:    us(h.Quantile(0.99)).Round(time.Microsecond),
		Max:    us(float64(h.Max())),
	}
}

func (rn *Runner) pickType() core.TxnType {
	u := rn.r.Float64()
	var cum float64
	for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
		cum += rn.mix.Fraction(t)
		if u < cum {
			return t
		}
	}
	return core.TxnStockLevel
}

func (rn *Runner) warehouse() int64 { return rn.r.Int63n(rn.warehouses) }

// backoffDelay returns the pre-jitter delay for the given attempt
// (1-based): baseDelay doubled attempt-1 times, capped at maxDelay.
func backoffDelay(attempt int) time.Duration {
	d := baseDelay
	for i := 1; i < attempt && d < maxDelay; i++ {
		d *= 2
	}
	return min(d, maxDelay)
}

// backoff sleeps the jittered exponential delay for the given attempt
// (1-based). Jitter is drawn from a seeded generator of its own, so the
// delay sequence is reproducible and the input stream does not depend on
// how many retries ran.
func (rn *Runner) backoff(attempt int) {
	half := int64(backoffDelay(attempt) / 2)
	time.Sleep(time.Duration(half + rn.jitter.Int63n(half+1)))
}

// retriable reports whether the failure is worth another attempt. A commit
// of unknown outcome never is: the transaction was not rolled back.
func retriable(err error) bool {
	return !errors.Is(err, ErrCommitUnknown) &&
		(errors.Is(err, ErrAborted) || errors.Is(err, storage.ErrTransientIO))
}

// paymentAmountCents draws the Payment amount uniformly from the
// benchmark's closed interval [$1.00, $5000.00].
func paymentAmountCents(r *rng.RNG) uint32 {
	return uint32(r.IntRange(tpcc.PaymentMinCents, tpcc.PaymentMaxCents))
}

// RunOne generates and executes one transaction, retrying deadlock aborts
// and transient I/O errors per the retry policy. It returns the executed
// type. A transaction that exhausts its attempts, or fails with
// ErrUnavailable, is shed (counted, nil error) unless the consecutive-shed
// budget is blown. A simulated crash (storage.ErrCrashed) is returned
// as-is: the worker must stop.
func (rn *Runner) RunOne() (core.TxnType, error) {
	return rn.runOne(context.Background())
}

// prepareArgs generates the input for one transaction of the given type
// into the runner's reusable args storage.
func (rn *Runner) prepareArgs(typ core.TxnType) {
	switch typ {
	case core.TxnNewOrder:
		in := &rn.args.newOrder
		in.W = rn.warehouse()
		in.D = rn.r.Int63n(tpcc.DistrictsPerWarehouse)
		in.C = rn.custGen.Next() - 1
		in.Items = rn.args.itemsBuf[:0]
		for i := 0; i < tpcc.ItemsPerOrder; i++ {
			it := OrderItem{IID: rn.itemGen.Next() - 1, SupplyW: in.W, Qty: 1 + rn.r.Int63n(10)}
			if rn.r.Bernoulli(rn.RemoteStockProb) {
				it.SupplyW = rn.sys.RemoteWarehouse(rn.r, in.W)
			}
			in.Items = append(in.Items, it)
		}
	case core.TxnPayment:
		in := &rn.args.payment
		*in = PaymentInput{
			W:           rn.warehouse(),
			D:           rn.r.Int63n(tpcc.DistrictsPerWarehouse),
			AmountCents: paymentAmountCents(rn.r),
		}
		in.CW, in.CD = in.W, rn.r.Int63n(tpcc.DistrictsPerWarehouse)
		if rn.r.Bernoulli(rn.RemotePaymentProb) {
			in.CW = rn.sys.RemoteWarehouse(rn.r, in.W)
		}
		if rn.r.Bernoulli(tpcc.PayByNameProb) {
			in.ByName = true
			in.NameOrd = rn.nameGen.Next()
		} else {
			in.C = rn.custGen.Next() - 1
		}
	case core.TxnOrderStatus:
		in := &rn.args.orderStatus
		*in = OrderStatusInput{
			W: rn.warehouse(),
			D: rn.r.Int63n(tpcc.DistrictsPerWarehouse),
		}
		if rn.r.Bernoulli(tpcc.PayByNameProb) {
			in.ByName = true
			in.NameOrd = rn.nameGen.Next()
		} else {
			in.C = rn.custGen.Next() - 1
		}
	case core.TxnDelivery:
		rn.args.delivery = DeliveryInput{W: rn.warehouse(), Carrier: uint8(1 + rn.r.Int63n(10))}
	case core.TxnStockLevel:
		rn.args.stockLevel = StockLevelInput{
			W: rn.warehouse(), D: rn.r.Int63n(tpcc.DistrictsPerWarehouse),
			Threshold: int32(10 + rn.r.Int63n(11)),
		}
	}
}

// execute runs the prepared transaction on the runner's system.
func (rn *Runner) execute(typ core.TxnType) error {
	switch typ {
	case core.TxnNewOrder:
		_, err := rn.sys.NewOrder(rn.args.newOrder)
		return err
	case core.TxnPayment:
		return rn.sys.Payment(rn.args.payment)
	case core.TxnOrderStatus:
		_, err := rn.sys.OrderStatus(rn.args.orderStatus)
		return err
	case core.TxnDelivery:
		_, err := rn.sys.Delivery(rn.args.delivery)
		return err
	case core.TxnStockLevel:
		_, err := rn.sys.StockLevel(rn.args.stockLevel)
		return err
	default:
		return fmt.Errorf("db: unknown transaction type %d", typ)
	}
}

func (rn *Runner) runOne(ctx context.Context) (core.TxnType, error) {
	start := time.Now()
	typ := rn.pickType()
	rn.prepareArgs(typ)
	for attempt := 1; ; attempt++ {
		err := rn.execute(typ)
		if err == nil {
			rn.counts[typ].Add(1)
			rn.consecutiveSheds = 0
			rn.recordLatency(typ, time.Since(start))
			return typ, nil
		}
		if errors.Is(err, storage.ErrCrashed) {
			return typ, err
		}
		down := errors.Is(err, ErrUnavailable)
		if !down {
			if !retriable(err) {
				return typ, fmt.Errorf("db: %s failed: %w", typ, err)
			}
			rn.aborts[typ].Add(1)
			if errors.Is(err, ErrWriteConflict) {
				rn.conflicts[typ].Add(1)
			} else if errors.Is(err, ErrSSIAbort) {
				rn.ssiAborts[typ].Add(1)
			}
		}
		if down || attempt >= maxAttempts {
			// Shed: drop this transaction, keep the worker alive.
			rn.sheds.Add(1)
			rn.consecutiveSheds++
			if rn.consecutiveSheds > shedBudget {
				return typ, fmt.Errorf("db: shed %d transactions in a row (last: %w)",
					rn.consecutiveSheds, err)
			}
			return typ, nil
		}
		if err := ctx.Err(); err != nil {
			return typ, err
		}
		rn.retries.Add(1)
		rn.backoff(attempt)
	}
}

// Run executes n transactions sequentially.
func (rn *Runner) Run(n int) error { return rn.RunContext(context.Background(), n) }

// RunContext executes up to n transactions sequentially, stopping with
// ctx.Err() once ctx is canceled. Cancellation is checked before every
// transaction and between retry attempts, so a canceled run stops
// within one transaction's execution time.
func (rn *Runner) RunContext(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if _, err := rn.runOne(ctx); err != nil {
			return err
		}
	}
	return nil
}

// TypeStats breaks out one transaction type's outcome over a run:
// acknowledged executions, failed attempts (engine rollbacks retried or
// shed), the subset of failures that were snapshot write-write conflicts,
// and latency quantiles over acknowledged executions.
type TypeStats struct {
	Acked         int64
	Aborts        int64
	Conflicts     int64
	SSIAborts     int64
	P50, P95, P99 time.Duration
}

// AbortRate returns failed attempts as a fraction of all attempts
// (0 when the type never ran).
func (ts TypeStats) AbortRate() float64 {
	if n := ts.Acked + ts.Aborts; n > 0 {
		return float64(ts.Aborts) / float64(n)
	}
	return 0
}

// RunStats aggregates the outcome of a concurrent run.
type RunStats struct {
	// Counts holds acknowledged executions per transaction type.
	Counts [core.NumTxnTypes]int64
	// Retries and Sheds sum the workers' retry-policy counters.
	Retries int64
	Sheds   int64
	// Crashed reports that at least one worker observed a simulated
	// power loss (storage.ErrCrashed) and stopped early.
	Crashed bool
	// Elapsed is the wall-clock duration of the run.
	Elapsed time.Duration
	// Commits, Aborts, LogForces and LogWaits are the engine-counter
	// deltas over the run, summed over the DBs it drove. LogWaits counts
	// the commits that waited for their record to be durable (read-only
	// commits and aborts write nothing that needs forcing); LogForces <
	// LogWaits means group commit amortized log I/O across transactions.
	Commits, Aborts, LogForces, LogWaits int64
	// LockAcquires, LockWaits, Deadlocks, WriteConflicts and SSIAborts are
	// the lock managers' and version stores' counter deltas over the run
	// (the last two always 0 under CC2PL).
	LockAcquires, LockWaits, Deadlocks, WriteConflicts, SSIAborts int64
	// Latency summarizes acknowledged-transaction response time across
	// all workers.
	Latency LatencyStats
	// PerType breaks the run down by transaction type (abort rates,
	// conflict counts, per-type latency quantiles).
	PerType [core.NumTxnTypes]TypeStats
}

// Acknowledged returns the total number of acknowledged transactions.
func (s RunStats) Acknowledged() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// TpmC returns acknowledged New-Order transactions per minute — the
// benchmark's throughput metric (0 when the run had no duration).
func (s RunStats) TpmC() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Counts[core.TxnNewOrder]) / s.Elapsed.Minutes()
}

// ForcesPerCommit returns log forces per commit that waited for one:
// exactly 1 with per-commit forcing, strictly below 1 when group commit
// batched (0 when nothing committed).
func (s RunStats) ForcesPerCommit() float64 {
	if s.LogWaits > 0 {
		return float64(s.LogForces) / float64(s.LogWaits)
	}
	return 0
}

// WriteTable prints the run's throughput, response time and per-type
// outcome as tab-separated lines: the one table every command that drives
// a Runner prints, whatever system it drove.
func (s RunStats) WriteTable(w io.Writer) {
	l := s.Latency
	fmt.Fprintf(w, "tpmC\t%.0f\n", s.TpmC())
	fmt.Fprintf(w, "latency_p50\t%v\nlatency_p95\t%v\nlatency_p99\t%v\nlatency_max\t%v\n", l.P50, l.P95, l.P99, l.Max)
	fmt.Fprintf(w, "type\tacked\taborts\tabort_rate\tp50\tp95\tp99\n")
	for typ, ts := range s.PerType {
		fmt.Fprintf(w, "%s\t%d\t%d\t%.4f\t%v\t%v\t%v\n",
			core.TxnType(typ), ts.Acked, ts.Aborts, ts.AbortRate(), ts.P50, ts.P95, ts.P99)
	}
}

// RunConcurrentPolicy executes up to total transactions across workers
// goroutines, each a Runner with an independent derived seed, and
// aggregates their counters and d's engine-counter deltas; see RunWorkers
// for how failures surface.
func RunConcurrentPolicy(d *DB, seed uint64, mix tpcc.Mix, total, workers int) (RunStats, error) {
	base := rng.New(seed)
	runners := make([]*Runner, max(workers, 1))
	for w := range runners {
		runners[w] = NewRunner(d, base.Uint64(), mix)
	}
	return RunWorkers(runners, total, d)
}

// addEngineCounts adds sign times the sum of dbs' engine counters to s's
// engine-counter fields: -1 before a run and +1 after it leave the run's
// deltas.
func (s *RunStats) addEngineCounts(dbs []*DB, sign int64) {
	for _, d := range dbs {
		acq, waits, dead := d.LockCounts()
		s.Commits += sign * d.Commits()
		s.Aborts += sign * d.Aborts()
		s.LogForces += sign * d.LogForces()
		s.LogWaits += sign * d.LogWaits()
		s.LockAcquires += sign * acq
		s.LockWaits += sign * waits
		s.Deadlocks += sign * dead
		s.WriteConflicts += sign * d.WriteConflicts()
		s.SSIAborts += sign * d.SSIAborts()
	}
}

// RunWorkers executes up to total transactions across the given runners,
// one goroutine each, and merges their counters and latency histograms
// into a RunStats, with the engine-counter deltas of dbs, the DBs the
// runners drive. A simulated crash stops the affected workers and is
// reported via RunStats.Crashed, not as an error; any other failure
// cancels the sibling workers promptly and is returned (first failure
// wins).
func RunWorkers(runners []*Runner, total int, dbs ...*DB) (RunStats, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workers := len(runners)
	per := total / workers
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	var crashed atomic.Bool
	var st RunStats
	st.addEngineCounts(dbs, -1)
	start := time.Now()
	for w, rn := range runners {
		n := per
		if w == workers-1 {
			n = total - per*(workers-1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := rn.RunContext(ctx, n); err != nil {
				switch {
				case errors.Is(err, storage.ErrCrashed):
					crashed.Store(true)
					cancel()
				case errors.Is(err, context.Canceled):
					// A sibling failed first; this worker just stopped.
				default:
					errCh <- err
					cancel()
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	st.Elapsed = time.Since(start)
	st.addEngineCounts(dbs, 1)
	st.Crashed = crashed.Load()
	latHist := stats.NewHistogram(latBucketWidthMicros, latBuckets)
	var latW stats.Welford
	var typeHists [core.NumTxnTypes]*stats.Histogram
	for i := range typeHists {
		typeHists[i] = stats.NewHistogram(latBucketWidthMicros, latBuckets)
	}
	for _, rn := range runners {
		c, a, cf, sa := rn.Counts(), rn.Aborts(), rn.Conflicts(), rn.SSIAborts()
		for i := range st.Counts {
			st.Counts[i] += c[i]
			st.PerType[i].Acked += c[i]
			st.PerType[i].Aborts += a[i]
			st.PerType[i].Conflicts += cf[i]
			st.PerType[i].SSIAborts += sa[i]
		}
		st.Retries += rn.Retries()
		st.Sheds += rn.Sheds()
		rn.mergeLatencyInto(latHist, &latW)
		rn.mergeTypeLatencyInto(&typeHists)
	}
	st.Latency = summarizeLatency(latHist, latW)
	us := func(v float64) time.Duration {
		return time.Duration(v * float64(time.Microsecond)).Round(time.Microsecond)
	}
	for i := range st.PerType {
		h := typeHists[i]
		st.PerType[i].P50 = us(h.Quantile(0.50))
		st.PerType[i].P95 = us(h.Quantile(0.95))
		st.PerType[i].P99 = us(h.Quantile(0.99))
	}
	return st, <-errCh
}

// RunConcurrent executes total transactions across workers goroutines
// and returns the first error (a simulated crash surfaces as
// storage.ErrCrashed).
func RunConcurrent(d *DB, seed uint64, mix tpcc.Mix, total, workers int) error {
	st, err := RunConcurrentPolicy(d, seed, mix, total, workers)
	if err != nil {
		return err
	}
	if st.Crashed {
		return storage.ErrCrashed
	}
	return nil
}
