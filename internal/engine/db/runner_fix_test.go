package db

import (
	"errors"
	"fmt"
	"reflect"
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

// TestBackoffDelaySequence pins the retry policy: the delay before a
// retry starts at 50 µs and doubles up to the 5 ms cap, and a transaction
// that aborts on every attempt is shed after ten attempts, nine of them
// retries, not a failure of the run.
func TestBackoffDelaySequence(t *testing.T) {
	want := []time.Duration{50, 100, 200, 400, 800, 1600, 3200, 5000, 5000, 5000, 5000}
	for i, w := range want {
		if got := backoffDelay(i + 1); got != w*time.Microsecond {
			t.Errorf("attempt %d: delay %v, want %v", i+1, got, w*time.Microsecond)
		}
	}

	// Driven end to end through a System whose procedures always abort
	// (shard.TestClusterBackoffSheds drives the same loop through a
	// cluster).
	rn := NewRunnerOn(alwaysAborts{}, 7, tpcc.DefaultMix())
	typ, err := rn.RunOne()
	if err != nil {
		t.Fatal(err)
	}
	if rn.Sheds() != 1 || rn.Retries() != 9 || rn.Aborts()[typ] != 10 {
		t.Fatalf("always-aborting system: sheds %d retries %d aborts %d, want 1, 9 and 10",
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

// recordingSystem records the input of every attempt it acknowledges and
// fails attempt number failAt (1-based; 0 = none) as a deadlock victim.
type recordingSystem struct {
	failAt, attempts int
	acked            []string
}

func (s *recordingSystem) attempt(in any) error {
	s.attempts++
	if s.attempts == s.failAt {
		return ErrAborted
	}
	s.acked = append(s.acked, fmt.Sprintf("%T %+v", in, in))
	return nil
}

func (s *recordingSystem) Warehouses() int { return 4 }
func (s *recordingSystem) RemoteWarehouse(r *rng.RNG, home int64) int64 {
	return (home + 1 + r.Int63n(3)) % 4
}
func (s *recordingSystem) NewOrder(in NewOrderInput) (NewOrderResult, error) {
	return NewOrderResult{}, s.attempt(in)
}
func (s *recordingSystem) Payment(in PaymentInput) error { return s.attempt(in) }
func (s *recordingSystem) OrderStatus(in OrderStatusInput) (OrderStatusResult, error) {
	return OrderStatusResult{}, s.attempt(in)
}
func (s *recordingSystem) Delivery(in DeliveryInput) (DeliveryResult, error) {
	return DeliveryResult{}, s.attempt(in)
}
func (s *recordingSystem) StockLevel(in StockLevelInput) (int, error) { return 0, s.attempt(in) }

// TestRetryLeavesLaterInputsAlone runs one seeded terminal twice, once
// with its tenth attempt failing as a deadlock victim: the retry and its
// backoff must not move any input drawn after it. The seed drew backoff
// jitter from the input generator, so one retry re-phased the rest of the
// worker's stream.
func TestRetryLeavesLaterInputsAlone(t *testing.T) {
	run := func(failAt int) []string {
		sys := &recordingSystem{failAt: failAt}
		rn := NewRunnerOn(sys, 7, tpcc.DefaultMix())
		if err := rn.Run(200); err != nil {
			t.Fatal(err)
		}
		if want := int64(min(failAt, 1)); rn.Retries() != want {
			t.Fatalf("retries %d, want %d", rn.Retries(), want)
		}
		return sys.acked
	}
	clean, retried := run(0), run(10)
	if !reflect.DeepEqual(clean, retried) {
		for i := 0; i < len(clean) && i < len(retried); i++ {
			if clean[i] != retried[i] {
				t.Fatalf("input %d differs after a retry:\n clean:   %s\n retried: %s", i, clean[i], retried[i])
			}
		}
		t.Fatalf("acknowledged %d inputs after a retry, want %d", len(retried), len(clean))
	}
}

// oneShotFailDisk delegates to an inner DiskIO until its `after`-th read;
// the page that read asked for then fails every read with a permanent
// (non-retriable) error. One failed read would not do: if it is a
// read-ahead's, nobody sees it, and the pin that wanted the page reads it
// again.
type oneShotFailDisk struct {
	storage.DiskIO
	after int64
	reads atomic.Int64
	bad   atomic.Int64 // failing page id + 1; 0 = none yet
}

var errPermanent = errors.New("permanent device failure")

func (d *oneShotFailDisk) Read(id storage.PageID, area storage.Area, buf []byte) error {
	if d.reads.Add(1) == d.after {
		d.bad.Store(int64(id) + 1)
	}
	if d.bad.Load() == int64(id)+1 {
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
	st, runErr := RunConcurrentPolicy(d, 3, tpcc.DefaultMix(), total, 4)
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
		st, err := RunConcurrentPolicy(d, 17, tpcc.DefaultMix(), total, workers)
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
