//go:build !race

// AllocsPerRun is documented as unreliable under the race detector (the
// instrumentation itself allocates), so this gate runs only on the
// race-free test leg.

package db

import (
	"runtime"
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

// TestHotPathAllocationFree gates the engine hot path at zero heap
// allocations per committed transaction in all three concurrency-control
// modes, and the blocking path at a fraction of one (the contended cell,
// below). testing.AllocsPerRun must report exactly 0 for New-Order and
// for Payment (both the by-id and the by-name customer select) on the
// non-group-commit path. Under mvcc that additionally covers snapshot
// begin/commit, version-chain installation (per-chain arenas plus chain
// freelists), retire-ring bookkeeping, and watermark pruning — copy-out
// versioning must not cost the hot path its zero-allocation property.
//
// The measured closures reuse inputs prepared once by the Runner's own
// generator, so the gate covers exactly what the benchmark loop executes:
// Session scratch, typed undo + arena, index descent, buffer-pool hits,
// and WAL appends. Amortized infrastructure growth (heap-file page slabs,
// B-tree node chunks, a log segment per 64 KiB logged) is kept out of
// the measurement by sizing the buffer pool to hold the whole 1-warehouse
// dataset and warming up first; residual growth events land well under
// one allocation per run, which AllocsPerRun's integer average
// reports as 0 — any per-transaction allocation reports as >= 1.
func TestHotPathAllocationFree(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate needs a loaded warehouse")
	}
	for _, cc := range []CCMode{CC2PL, CCMVCC, CCSSI} {
		t.Run(cc.String(), func(t *testing.T) { testHotPathAllocationFree(t, cc) })
	}
	t.Run("contended", testContendedPathAllocations)
}

// testContendedPathAllocations is the gate's contended cell: two workers
// run the full mix against ONE warehouse under 2PL with batching on, so
// they queue on the warehouse and district rows and on each other's log
// force. Blocking must cost no allocation either — lock waits reuse pooled
// request records, commits wait on the log's one condition variable — so
// the whole run, the three transaction types the single-worker gate does
// not cover and the runners' own bookkeeping included, stays under half an
// allocation per committed transaction (it was 6.4 when every lock wait
// allocated a request, a channel and two maps, and every grouped commit a
// waiter and a channel).
func testContendedPathAllocations(t *testing.T) {
	d, err := OpenWith(Config{
		Warehouses: 1, PageSize: 4096, BufferPages: 32768,
		LockStripes: lock.DefaultStripes, BufferPartitions: 8,
	}, Options{LogHook: yieldingLog{}, GroupCommit: wal.GroupConfig{MaxBatch: 64}})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}
	const txns, workers = 6000, 2
	run := func(seed uint64) RunStats {
		st, err := RunConcurrentPolicy(d, seed, tpcc.DefaultMix(), txns, workers, DefaultRetryPolicy())
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	run(11) // warm the pools: sessions, undo arenas, request records, index chunks
	_, waits0, _ := d.LockCounts()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st := run(12)
	runtime.ReadMemStats(&after)
	_, waits, _ := d.LockCounts()
	if waits-waits0 < txns/100 {
		t.Fatalf("only %d lock waits in %d transactions: the cell is not contended", waits-waits0, txns)
	}
	perTxn := float64(after.Mallocs-before.Mallocs) / float64(st.Commits)
	t.Logf("%d commits, %d lock waits, %d retries, forces/commit %.2f, %.3f allocs/txn",
		st.Commits, waits-waits0, st.Retries, st.ForcesPerCommit(), perTxn)
	if perTxn >= 0.5 {
		t.Errorf("%.3f allocs per committed transaction on the contended path, want < 0.5", perTxn)
	}
}

func testHotPathAllocationFree(t *testing.T, cc CCMode) {
	// 32768 x 4 KiB covers the ~15k-page 1-warehouse dataset plus insert
	// growth; with room to spare the measurement sees no evictions. The
	// gate runs with lock striping and pool partitioning explicitly on:
	// sharding the structures must not reintroduce per-transaction
	// allocations (each stripe and partition carries its own free pools).
	d, err := Open(Config{
		Warehouses: 1, PageSize: 4096, BufferPages: 32768,
		LockStripes: lock.DefaultStripes, BufferPartitions: 8,
		CC: cc,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}

	// One Session and one prepared input per gate, reused across runs:
	// AllocsPerRun must observe steady-state execution, not input setup.
	s := d.NewSession()
	rn := NewRunner(d, 7, tpcc.DefaultMix())

	rn.prepareArgs(core.TxnNewOrder)
	newOrder := func() {
		if _, err := s.NewOrder(rn.args.newOrder); err != nil {
			t.Fatal(err)
		}
	}

	paymentInput := func(byName bool) PaymentInput {
		for {
			rn.prepareArgs(core.TxnPayment)
			if rn.args.payment.ByName == byName {
				return rn.args.payment
			}
		}
	}
	byID := paymentInput(false)
	byName := paymentInput(true)
	paymentByID := func() {
		if err := s.Payment(byID); err != nil {
			t.Fatal(err)
		}
	}
	paymentByName := func() {
		if err := s.Payment(byName); err != nil {
			t.Fatal(err)
		}
	}

	for i := 0; i < 500; i++ {
		newOrder()
		paymentByID()
		paymentByName()
	}

	gates := []struct {
		name string
		fn   func()
	}{
		{"NewOrder", newOrder},
		{"Payment/byID", paymentByID},
		{"Payment/byName", paymentByName},
	}
	for _, g := range gates {
		if allocs := testing.AllocsPerRun(500, g.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/run, want 0", g.name, allocs)
		}
	}
}
