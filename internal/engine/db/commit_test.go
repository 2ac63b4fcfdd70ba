package db

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
)

// gatedLog is a log device the test holds shut: the first force to arrive
// once armed waits at the gate, and dies with the device when it opens.
type gatedLog struct {
	armed   atomic.Bool
	dead    atomic.Bool
	arrived chan struct{}
	open    chan struct{}
}

func newGatedLog() *gatedLog {
	return &gatedLog{arrived: make(chan struct{}, 1), open: make(chan struct{})}
}

func (g *gatedLog) BeforeForce(int) error {
	if g.dead.Load() {
		return fmt.Errorf("gated log: %w", storage.ErrCrashed)
	}
	if g.armed.CompareAndSwap(true, false) {
		g.arrived <- struct{}{}
		<-g.open
		g.dead.Store(true)
		return fmt.Errorf("gated log: %w", storage.ErrCrashed)
	}
	return nil
}

// TestReaderOfPreCommittedDataWaitsForItsWriter is the dependency rule
// early lock release has to keep. T1 (a Payment) pre-commits and releases
// its locks while its force is held at the device. T2r (an Order-Status on
// the same customer, which writes nothing) and T2w (a second Payment on the
// same rows) both read what T1 wrote — under 2pl through the locks T1 gave
// up, under mvcc and ssi through the snapshot T1 published into — and
// neither may be acknowledged while T1 is not durable. Then the device
// dies and nobody was acknowledged. After power loss and recovery both
// payments are gone if the unforced tail was lost, and both are there if it
// reached the platter: an unacknowledged transaction may survive a crash,
// but never one that read from it without it (the log is prefix-durable).
func TestReaderOfPreCommittedDataWaitsForItsWriter(t *testing.T) {
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		// keepTail picks the power loss: the whole unforced tail is lost,
		// or all of it reaches the platter.
		for _, keepTail := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/keepTail=%v", cc, keepTail), func(t *testing.T) {
				testReaderWaitsForWriter(t, cc, keepTail)
			})
		}
	}
}

func testReaderWaitsForWriter(t *testing.T, cc CCMode, keepTail bool) {
	dev := newGatedLog()
	d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 1 << 15, CC: cc},
		Options{LogHook: dev, GroupCommit: wal.GroupConfig{MaxBatch: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	const dist, cust = 3, 77
	pay := PaymentInput{W: 0, D: dist, CW: 0, CD: dist, C: cust, AmountCents: 1000}
	balance0 := readCustomer(t, d, 0, dist, cust).BalanceCents
	history0 := d.heaps[core.History].Live()
	commits0 := d.Commits()
	_, lockWaits0, _ := d.LockCounts()

	dev.armed.Store(true)
	t1 := make(chan error, 1)
	go func() { t1 <- d.Payment(pay) }()
	<-dev.arrived // T1 is pre-committed, published, unlocked, and stuck at the device

	// T2w first, up to its durability wait — its own record entering the
	// log says it got there, and that it holds no lock any more — so that
	// the only thing T2r can queue behind is the log.
	t2w := make(chan error, 1)
	size0 := d.log.Size()
	go func() { t2w <- d.Payment(pay) }()
	deadline := time.Now().Add(10 * time.Second)
	for d.log.Size() == size0 || d.log.Waits() < 2 {
		select {
		case err := <-t2w:
			t.Fatalf("T2w finished (%v) before T1 was durable", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("T2w never reached its pre-commit: it is blocked on a lock T1 should have released")
		}
		time.Sleep(100 * time.Microsecond)
	}
	t2r := make(chan error, 1)
	go func() {
		_, err := d.OrderStatus(OrderStatusInput{W: 0, D: dist, C: cust})
		t2r <- err
	}()
	time.Sleep(5 * time.Millisecond)
	select {
	case err := <-t2r:
		t.Fatalf("read-only T2 finished (%v) while the writer it read from was not durable", err)
	case err := <-t2w:
		t.Fatalf("writing T2 finished (%v) while the writer it read from was not durable", err)
	case err := <-t1:
		t.Fatalf("T1 finished (%v) with its force still at the device", err)
	default:
	}
	if got := readCustomer(t, d, 0, dist, cust).BalanceCents; got != balance0-2000 {
		t.Errorf("balance %d while both payments are pre-committed, want %d: T2w did not read T1's write", got, balance0-2000)
	}
	if _, waits, _ := d.LockCounts(); waits != lockWaits0 {
		t.Errorf("%d lock waits: T2 queued behind T1's locks instead of its log record", waits-lockWaits0)
	}
	if d.Commits() != commits0 {
		t.Errorf("%d commits counted before anything is durable", d.Commits()-commits0)
	}

	close(dev.open) // the device dies under T1's force
	for name, ch := range map[string]chan error{"T1": t1, "T2r": t2r, "T2w": t2w} {
		if err := <-ch; !errors.Is(err, ErrCommitUnknown) || !errors.Is(err, storage.ErrCrashed) {
			t.Errorf("%s = %v, want ErrCommitUnknown over ErrCrashed", name, err)
		}
	}
	if d.Commits() != commits0 || d.Aborts() != 0 {
		t.Errorf("commits +%d aborts %d after the crash, want none acknowledged and none undone", d.Commits()-commits0, d.Aborts())
	}

	// Power loss. Find the seed under which wal.Log.CrashTail (which keeps
	// durable + Int63n(tail+1) bytes, then tears them on Bernoulli(0.5))
	// loses the whole unforced tail, or keeps all of it untorn.
	tail := d.log.Size() - d.log.DurableSize()
	seed := uint64(1)
	for ; ; seed++ {
		r := rng.New(seed)
		if kept := r.Int63n(tail + 1); (!keepTail && kept == 0) || (keepTail && kept == tail && !r.Bernoulli(0.5)) {
			break
		}
	}
	if err := d.CrashPowerLoss(rng.New(seed)); err != nil {
		t.Fatal(err)
	}
	dev.dead.Store(false)
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	survived := d.heaps[core.History].Live() - history0
	balance := readCustomer(t, d, 0, dist, cust).BalanceCents
	if balance != balance0-1000*survived {
		t.Fatalf("balance %d with %d surviving payments from %d", balance, survived, balance0)
	}
	if want := map[bool]int64{false: 0, true: 2}[keepTail]; survived != want {
		t.Errorf("%d unacknowledged payments survived, want %d", survived, want)
	}
	// The database works again.
	if err := d.Payment(pay); err != nil {
		t.Fatal(err)
	}
}

// yieldingLog is a log device whose force takes a few scheduler turns: long
// enough for another worker to run into the committer's locks and into its
// force, with no timer involved.
type yieldingLog struct{}

func (yieldingLog) BeforeForce(int) error {
	for i := 0; i < 4; i++ {
		runtime.Gosched()
	}
	return nil
}

// flakyLog fails every force with a transient error while failing is set.
type flakyLog struct {
	failing atomic.Bool
	calls   atomic.Int64
}

func (f *flakyLog) BeforeForce(int) error {
	f.calls.Add(1)
	if f.failing.Load() {
		return fmt.Errorf("flaky log: %w", storage.ErrTransientIO)
	}
	return nil
}

// TestCommitFailureAfterPreCommitIsNotUndone pins the failure contract. A
// force that keeps failing exhausts its in-place retries and latches the
// log: the committing transaction gets ErrCommitUnknown, its writes stay
// (they are published; other transactions may have read them), nothing is
// counted committed or aborted, and the runner must not retry it. Every
// later transaction fails before pre-commit and IS rolled back. After a
// crash the unacknowledged transaction is found in the log and kept —
// allowed, and bounded by one per worker.
func TestCommitFailureAfterPreCommitIsNotUndone(t *testing.T) {
	dev := &flakyLog{}
	d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 1 << 15},
		Options{LogHook: dev})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}
	const dist, cust = 2, 9
	pay := PaymentInput{W: 0, D: dist, CW: 0, CD: dist, C: cust, AmountCents: 500}
	balance0 := readCustomer(t, d, 0, dist, cust).BalanceCents
	history0 := d.heaps[core.History].Live()

	dev.failing.Store(true)
	err = d.Payment(pay)
	if !errors.Is(err, ErrCommitUnknown) || !errors.Is(err, storage.ErrTransientIO) {
		t.Fatalf("Payment = %v, want ErrCommitUnknown over the device error", err)
	}
	if retriable(err) {
		t.Error("a commit of unknown outcome is offered for retry")
	}
	if got := readCustomer(t, d, 0, dist, cust).BalanceCents; got != balance0-500 {
		t.Errorf("balance %d after the failed force, want %d: the pre-committed transaction was undone", got, balance0-500)
	}
	if d.Commits() != 0 || d.Aborts() != 0 {
		t.Errorf("commits %d aborts %d, want neither", d.Commits(), d.Aborts())
	}

	dev.failing.Store(false) // too late: the log stays failed until recovery
	calls := dev.calls.Load()
	err = d.Payment(pay)
	if err == nil || errors.Is(err, ErrCommitUnknown) {
		t.Fatalf("Payment on a failed log = %v, want a plain failure before pre-commit", err)
	}
	if got := readCustomer(t, d, 0, dist, cust).BalanceCents; got != balance0-500 {
		t.Errorf("balance %d, want %d: the refused transaction was not rolled back", got, balance0-500)
	}
	if d.Aborts() != 1 || dev.calls.Load() != calls {
		t.Errorf("aborts %d, device calls +%d, want 1 and 0", d.Aborts(), dev.calls.Load()-calls)
	}
	if _, err := d.OrderStatus(OrderStatusInput{W: 0, D: dist, C: cust}); !errors.Is(err, ErrCommitUnknown) {
		t.Errorf("read-only commit over a failed log = %v, want ErrCommitUnknown", err)
	}

	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if got, n := readCustomer(t, d, 0, dist, cust).BalanceCents, d.heaps[core.History].Live()-history0; got != balance0-500 || n != 1 {
		t.Errorf("after recovery balance %d with %d history rows, want %d with 1", got, n, balance0-500)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if err := d.Payment(pay); err != nil {
		t.Fatalf("log still failed after recovery: %v", err)
	}
}

// TestReadOnlyAndAbortedTransactionsForceNothing checks the two commits
// that stopped costing a device force: a transaction that wrote nothing
// (in every mode, 2pl included) and a rollback.
func TestReadOnlyAndAbortedTransactionsForceNothing(t *testing.T) {
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		dev := &flakyLog{}
		d, err := OpenWith(Config{Warehouses: 1, PageSize: 4096, BufferPages: 1 << 15, CC: cc},
			Options{LogHook: dev})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Load(1); err != nil {
			t.Fatal(err)
		}
		size := d.log.Size()
		if _, err := d.OrderStatus(OrderStatusInput{W: 0, D: 1, C: 5}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.StockLevel(StockLevelInput{W: 0, D: 1, Threshold: 15}); err != nil {
			t.Fatal(err)
		}
		if d.log.Size() != size || dev.calls.Load() != 0 || d.Commits() != 2 {
			t.Errorf("%s: read-only commits wrote %d log bytes and forced %d times (%d commits)",
				cc, d.log.Size()-size, dev.calls.Load(), d.Commits())
		}
		bad := NewOrderInput{W: 0, D: 1, C: 5, Items: []OrderItem{{IID: 1, SupplyW: 0, Qty: 1}, {IID: 1 << 40, SupplyW: 0, Qty: 1}}}
		if _, err := d.NewOrder(bad); err == nil {
			t.Fatal("New-Order with a nonexistent item committed")
		}
		if d.Aborts() != 1 || dev.calls.Load() != 0 {
			t.Errorf("%s: aborts %d, forces %d, want 1 and 0", cc, d.Aborts(), dev.calls.Load())
		}
		if d.log.Size() == size {
			t.Errorf("%s: the rollback buffered no abort record", cc)
		}
	}
}
