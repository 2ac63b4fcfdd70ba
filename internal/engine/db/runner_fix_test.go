package db

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// TestPaymentAmountWithinBenchmarkRange is the regression test for the
// Payment amount draw: the seed drew 100 + Int63n(500000), i.e. up to
// $5000.99, exceeding the benchmark's $5000.00 maximum. Over 200k draws
// the old code would exceed the cap ~40 times.
func TestPaymentAmountWithinBenchmarkRange(t *testing.T) {
	r := rng.New(7)
	var min, max uint32 = 1 << 31, 0
	for i := 0; i < 200000; i++ {
		a := paymentAmountCents(r)
		if a < tpcc.PaymentMinCents || a > tpcc.PaymentMaxCents {
			t.Fatalf("draw %d: amount %d cents outside [%d, %d]",
				i, a, tpcc.PaymentMinCents, tpcc.PaymentMaxCents)
		}
		if a < min {
			min = a
		}
		if a > max {
			max = a
		}
	}
	// The draw should span most of the closed interval.
	if min > tpcc.PaymentMinCents+1000 || max < tpcc.PaymentMaxCents-1000 {
		t.Errorf("draws span [%d, %d], expected to cover [%d, %d] closely",
			min, max, tpcc.PaymentMinCents, tpcc.PaymentMaxCents)
	}
}

// TestBackoffDelaySequence is the regression test for the MaxDelay gate:
// the seed used d < MaxDelay as the doubling-loop condition, so
// MaxDelay <= 0 silently disabled exponential backoff instead of leaving
// it uncapped as the doc comment promises.
func TestBackoffDelaySequence(t *testing.T) {
	base := 50 * time.Microsecond
	cases := []struct {
		name    string
		policy  RetryPolicy
		attempt int
		want    time.Duration
	}{
		{"first attempt", RetryPolicy{BaseDelay: base, MaxDelay: 5 * time.Millisecond}, 1, base},
		{"doubles", RetryPolicy{BaseDelay: base, MaxDelay: 5 * time.Millisecond}, 4, 8 * base},
		{"capped", RetryPolicy{BaseDelay: base, MaxDelay: 5 * time.Millisecond}, 10, 5 * time.Millisecond},
		{"uncapped zero", RetryPolicy{BaseDelay: base, MaxDelay: 0}, 8, base << 7},
		{"uncapped negative", RetryPolicy{BaseDelay: base, MaxDelay: -1}, 12, base << 11},
		{"no base no delay", RetryPolicy{BaseDelay: 0, MaxDelay: 0}, 5, 0},
		{"overflow guard", RetryPolicy{BaseDelay: base, MaxDelay: 0}, 80, 0},
	}
	for _, tc := range cases {
		rn := &Runner{Policy: tc.policy}
		got := rn.backoffDelay(tc.attempt)
		if tc.name == "overflow guard" {
			if got <= 0 {
				t.Errorf("%s: delay %v overflowed", tc.name, got)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("%s: attempt %d delay = %v, want %v", tc.name, tc.attempt, got, tc.want)
		}
	}
	// The full sequence for an uncapped policy must strictly double.
	rn := &Runner{Policy: RetryPolicy{BaseDelay: base}}
	prev := rn.backoffDelay(1)
	for attempt := 2; attempt <= 16; attempt++ {
		d := rn.backoffDelay(attempt)
		if d != prev*2 {
			t.Fatalf("attempt %d: delay %v, want %v (uncapped doubling)", attempt, d, prev*2)
		}
		prev = d
	}

	// Driven end to end through a System whose procedures always abort,
	// with more attempts than the doubling has bits (attempt 49 is where a
	// shifted 50 µs goes negative): every attempt backs off within the cap
	// and the transaction is shed, not a panic. The cluster runs on this
	// same loop (shard.TestClusterBackoffSheds drives it through a
	// cluster).
	rn = NewRunnerOn(alwaysAborts{}, 7, tpcc.DefaultMix())
	rn.Policy = RetryPolicy{MaxAttempts: 64, BaseDelay: base, MaxDelay: 200 * time.Microsecond}
	typ, err := rn.RunOne()
	if err != nil {
		t.Fatal(err)
	}
	if rn.Sheds() != 1 || rn.Retries() != 63 || rn.Aborts()[typ] != 64 {
		t.Fatalf("always-aborting system: sheds %d retries %d aborts %d, want 1, 63 and 64",
			rn.Sheds(), rn.Retries(), rn.Aborts()[typ])
	}
}

// alwaysAborts is a System on which every procedure is a deadlock victim.
type alwaysAborts struct{}

func (alwaysAborts) Warehouses() int                              { return 1 }
func (alwaysAborts) RemoteWarehouse(_ *rng.RNG, home int64) int64 { return home }
func (alwaysAborts) NewOrder(NewOrderInput) (NewOrderResult, error) {
	return NewOrderResult{}, ErrAborted
}
func (alwaysAborts) Payment(PaymentInput) error { return ErrAborted }
func (alwaysAborts) OrderStatus(OrderStatusInput) (OrderStatusResult, error) {
	return OrderStatusResult{}, ErrAborted
}
func (alwaysAborts) Delivery(DeliveryInput) (DeliveryResult, error) {
	return DeliveryResult{}, ErrAborted
}
func (alwaysAborts) StockLevel(StockLevelInput) (int, error) { return 0, ErrAborted }

// oneShotFailDisk delegates to an inner DiskIO but fails exactly one read
// with a permanent (non-retriable) error after `after` reads.
type oneShotFailDisk struct {
	storage.DiskIO
	after int64
	reads atomic.Int64
}

var errPermanent = errors.New("permanent device failure")

func (d *oneShotFailDisk) Read(id storage.PageID, area storage.Area, buf []byte) error {
	if d.reads.Add(1) == d.after {
		return errPermanent
	}
	return d.DiskIO.Read(id, area, buf)
}

// TestRunConcurrentPolicyCancelsSiblingsOnFailure injects one permanent
// error into a large run and checks the failure is surfaced AND the
// sibling workers stop promptly instead of running their full quota (the
// seed let them run to completion).
func TestRunConcurrentPolicyCancelsSiblingsOnFailure(t *testing.T) {
	disk := &oneShotFailDisk{DiskIO: storage.NewMemDisk()}
	d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 2048},
		Options{Disk: disk})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}
	// Arm the failure shortly after the run starts.
	disk.after = disk.reads.Load() + 50
	const total = 200000
	start := time.Now()
	st, runErr := RunConcurrentPolicy(d, 3, tpcc.DefaultMix(), total, 4, DefaultRetryPolicy())
	elapsed := time.Since(start)
	if runErr == nil {
		t.Fatal("run succeeded despite a permanent device failure")
	}
	if !errors.Is(runErr, errPermanent) {
		t.Fatalf("error %v does not wrap the injected failure", runErr)
	}
	if st.Crashed {
		t.Error("permanent error misreported as a crash")
	}
	if got := st.Acknowledged() + st.Sheds; got >= total/2 {
		t.Errorf("siblings acknowledged %d of %d transactions after the failure; cancellation not prompt (elapsed %v)",
			got, total, elapsed)
	}
}

// TestGroupCommitAcksSameTransactionSets runs the identical seeded
// workload grouped and ungrouped (under -race via make test) and checks
// both modes acknowledge exactly the same per-type transaction sets,
// with grouping strictly reducing forces per commit at 4 workers.
func TestGroupCommitAcksSameTransactionSets(t *testing.T) {
	const total, workers = 800, 4
	policy := DefaultRetryPolicy()
	policy.MaxAttempts = 100 // retries must never exhaust: sheds would desync the modes
	policy.BaseDelay = 0     // backoff jitter draws from the runner's generator: a retry would shift every later input
	run := func(group wal.GroupConfig) RunStats {
		t.Helper()
		d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 2048},
			Options{GroupCommit: group, LogHook: yieldingLog{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Load(1); err != nil {
			t.Fatal(err)
		}
		st, err := RunConcurrentPolicy(d, 17, tpcc.DefaultMix(), total, workers, policy)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	ungrouped := run(wal.GroupConfig{})
	grouped := run(wal.GroupConfig{MaxBatch: 64})
	if ungrouped.Sheds != 0 || grouped.Sheds != 0 {
		t.Fatalf("sheds (ungrouped %d, grouped %d) make the runs incomparable",
			ungrouped.Sheds, grouped.Sheds)
	}
	if ungrouped.Counts != grouped.Counts {
		t.Errorf("acknowledged sets differ:\nungrouped %v\ngrouped   %v",
			ungrouped.Counts, grouped.Counts)
	}
	if ungrouped.Acknowledged() != total || grouped.Acknowledged() != total {
		t.Errorf("acked %d/%d of %d", ungrouped.Acknowledged(), grouped.Acknowledged(), total)
	}
	if fpc := ungrouped.ForcesPerCommit(); fpc != 1 {
		t.Errorf("ungrouped forces per commit = %.3f, want exactly 1", fpc)
	}
	if fpc := grouped.ForcesPerCommit(); fpc >= 1 {
		t.Errorf("grouped forces per commit = %.3f, want < 1", fpc)
	} else {
		t.Logf("grouped forces per commit = %.3f (%d forces / %d waited-for records)",
			fpc, grouped.LogForces, grouped.LogWaits)
	}
	if grouped.Latency.N != total || ungrouped.Latency.N != total {
		t.Errorf("latency samples %d/%d, want %d each", ungrouped.Latency.N, grouped.Latency.N, total)
	}
	if grouped.Latency.P99 < grouped.Latency.P50 || grouped.Latency.Max < grouped.Latency.P99 {
		t.Errorf("latency quantiles not monotone: %v", grouped.Latency)
	}
}
