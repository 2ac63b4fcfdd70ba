package lock

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpccmodel/internal/rng"
)

// schedDriver drives one Manager through a seeded request schedule and
// records every outcome. Transactions run on their own goroutines, each
// with its Owner (Lock blocks), but the driver serializes issuance: it sends one op, then spins
// until the op either completes (result flag) or parks as a waiter (the
// stripe waits counter — bumped under the stripe mutex before the request
// sleeps — moves). Grants released by a Release are collected by exact
// count: promote() runs inside Release and bumps the acquired counter
// per granted waiter, so the acquired delta across the call says how many
// completion flags to wait for. Every observation point is therefore
// deterministic, which is what lets two managers' logs be compared
// line for line.
type schedDriver struct {
	m       *Manager
	ops     []chan schedOp
	results []chan string // per-txn outcome of the op in flight
	blocked []bool
	pending []int // log index of the blocked op, -1 when none
	log     []string
	wg      sync.WaitGroup
	flags   []atomic.Int32
}

type schedOp struct {
	release bool
	key     Key
	mode    Mode
}

func newSchedDriver(m *Manager, txns int) *schedDriver {
	d := &schedDriver{
		m:       m,
		ops:     make([]chan schedOp, txns),
		results: make([]chan string, txns),
		blocked: make([]bool, txns),
		pending: make([]int, txns),
		flags:   make([]atomic.Int32, txns),
	}
	for i := range d.ops {
		d.ops[i] = make(chan schedOp)
		d.results[i] = make(chan string, 1)
		d.pending[i] = -1
		d.wg.Add(1)
		go d.txnLoop(i)
	}
	return d
}

func (d *schedDriver) txnLoop(i int) {
	defer d.wg.Done()
	var o Owner
	o.Begin(TxnID(i + 1))
	for op := range d.ops[i] {
		if op.release {
			d.m.Release(&o)
			d.results[i] <- "released"
			d.flags[i].Store(1)
			continue
		}
		err := d.m.Lock(&o, op.key, op.mode)
		switch {
		case err == nil:
			d.results[i] <- "grant"
		case errors.Is(err, ErrDeadlock):
			d.results[i] <- "deadlock"
		default:
			d.results[i] <- fmt.Sprintf("error:%v", err)
		}
		d.flags[i].Store(1)
	}
}

func (d *schedDriver) waitsTotal() int64 {
	_, w, _ := d.m.Counts()
	return w
}

func (d *schedDriver) acquiredTotal() int64 {
	a, _, _ := d.m.Counts()
	return a
}

// issue sends op to txn i and records its outcome — "wait" if it parked.
func (d *schedDriver) issue(i int, op schedOp) {
	baseWaits := d.waitsTotal()
	baseAcquired := d.acquiredTotal()
	d.flags[i].Store(0)
	d.ops[i] <- op
	for {
		if d.flags[i].Load() != 0 {
			res := <-d.results[i]
			if op.release {
				// promote() ran inside Release; collect the txns it woke.
				woken := d.collect(int(d.acquiredTotal() - baseAcquired))
				res = fmt.Sprintf("released woke=%v", woken)
			}
			d.log = append(d.log, fmt.Sprintf("txn%d %s -> %s", i+1, opString(op), res))
			return
		}
		if d.waitsTotal() > baseWaits {
			d.blocked[i] = true
			d.pending[i] = len(d.log)
			d.log = append(d.log, fmt.Sprintf("txn%d %s -> wait", i+1, opString(op)))
			return
		}
		runtime.Gosched()
	}
}

// collect waits for exactly n parked transactions to finish their granted
// Lock, patches their log lines with the outcome, and unblocks them.
// The set of woken transactions is determined by the manager (FIFO
// promote); only the observation is asynchronous.
func (d *schedDriver) collect(n int) []int {
	var woken []int
	for len(woken) < n {
		progressed := false
		for i := range d.flags {
			if d.blocked[i] && d.flags[i].Load() != 0 {
				res := <-d.results[i]
				d.log[d.pending[i]] += " ... " + res
				d.blocked[i] = false
				d.pending[i] = -1
				woken = append(woken, i+1)
				progressed = true
			}
		}
		if !progressed {
			runtime.Gosched()
		}
	}
	// The woken SET is deterministic; the observation order is not.
	sort.Ints(woken)
	return woken
}

func opString(op schedOp) string {
	if op.release {
		return "release"
	}
	return fmt.Sprintf("acq %v %v", op.key, op.mode)
}

// run plays a seeded schedule: steps random ops over a deliberately tiny
// key space (to force conflicts, upgrades, and deadlocks), then drains —
// releasing unparked transactions until every waiter has been granted and
// released. The same seed yields the same schedule on any manager because
// op choice depends only on the (deterministic) blocked set.
func runLockSchedule(m *Manager, seed uint64, steps int) []string {
	const txns = 8
	r := rng.New(seed)
	d := newSchedDriver(m, txns)
	for s := 0; s < steps; s++ {
		// Pick an unblocked transaction (one always exists: a universal
		// wait would be a cycle, and cycles are killed at creation).
		var free []int
		for i := 0; i < txns; i++ {
			if !d.blocked[i] {
				free = append(free, i)
			}
		}
		i := free[r.Int63n(int64(len(free)))]
		if r.Bernoulli(0.15) {
			d.issue(i, schedOp{release: true})
			continue
		}
		key := Key{Table: uint32(1 + r.Int63n(2)), Row: uint64(r.Int63n(6))}
		mode := Shared
		if r.Bernoulli(0.5) {
			mode = Exclusive
		}
		d.issue(i, schedOp{key: key, mode: mode})
	}
	// Drain: release the unparked until nobody waits, then release those.
	for {
		anyBlocked := false
		for i := 0; i < txns; i++ {
			if d.blocked[i] {
				anyBlocked = true
			}
		}
		if !anyBlocked {
			break
		}
		for i := 0; i < txns; i++ {
			if !d.blocked[i] {
				d.issue(i, schedOp{release: true})
			}
		}
	}
	for i := 0; i < txns; i++ {
		d.issue(i, schedOp{release: true})
	}
	for i := range d.ops {
		close(d.ops[i])
	}
	d.wg.Wait()
	acq, waits, deadlocks := m.Counts()
	d.log = append(d.log, fmt.Sprintf("totals acquired=%d waits=%d deadlocks=%d", acq, waits, deadlocks))
	return d.log
}

// TestStripedDifferential replays identical seeded request schedules
// against the single-table manager (stripes=1 — structurally the seed
// implementation) and the striped one: every grant, wait, wake set, and
// deadlock victim must match. Victim choice is the one policy knob — the
// requester whose edge closes the cycle is killed — and it is
// stripe-independent, so the logs must be equal line for line.
func TestStripedDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 42, 1993, 77} {
		ms, mm := NewGraph().newManager(1), NewManager()
		single := runLockSchedule(ms, seed, 400)
		striped := runLockSchedule(mm, seed, 400)
		if ns, nm := ms.Keys(), mm.Keys(); ns != 0 || nm != 0 {
			t.Fatalf("seed %d: %d and %d lock states left after every transaction released", seed, ns, nm)
		}
		if len(single) != len(striped) {
			t.Fatalf("seed %d: log lengths differ: %d vs %d", seed, len(single), len(striped))
		}
		for i := range single {
			if single[i] != striped[i] {
				t.Fatalf("seed %d: schedules diverge at op %d:\n  single:  %s\n  striped: %s",
					seed, i, single[i], striped[i])
			}
		}
	}
}

// differentStripeRows returns rows whose keys land in n distinct stripes.
func differentStripeRows(m *Manager, table uint32, n int) []uint64 {
	var rows []uint64
	seen := map[*stripe]bool{}
	for row := uint64(0); len(rows) < n; row++ {
		s := m.stripeOf(Key{Table: table, Row: row})
		if !seen[s] {
			seen[s] = true
			rows = append(rows, row)
		}
	}
	return rows
}

// TestCrossStripeDeadlock builds a deadlock cycle whose keys live in
// distinct stripes, so detection cannot work by inspecting any one stripe:
// it must see the cross-stripe wait-for graph. Run with -race this also
// exercises the stripe->detector lock nesting under concurrency. It is the
// one test of the TxnID-keyed methods: each requester, granted or chosen
// as the victim, releases its own locks through the registry, which lets
// the rest of the cycle drain.
func TestCrossStripeDeadlock(t *testing.T) {
	m := NewManager()
	rows := differentStripeRows(m, 1, 3)
	keys := []Key{
		{Table: 1, Row: rows[0]},
		{Table: 1, Row: rows[1]},
		{Table: 1, Row: rows[2]},
	}
	// Each txn holds key[i], then requests key[(i+1)%3]: a 3-cycle
	// spanning 3 stripes. The last requester to close the cycle dies.
	for i := 0; i < 3; i++ {
		if err := m.Acquire(TxnID(i+1), keys[i], Exclusive); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := m.Acquire(TxnID(i+1), keys[(i+1)%3], Exclusive)
			m.ReleaseAll(TxnID(i + 1))
			errs <- err
		}()
	}
	var deadlocks, grants int
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			switch {
			case err == nil:
				grants++
			case errors.Is(err, ErrDeadlock):
				deadlocks++
			default:
				t.Fatalf("unexpected error: %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("cross-stripe deadlock not detected: %d grants, %d deadlocks so far", grants, deadlocks)
		}
	}
	wg.Wait()
	if deadlocks == 0 {
		t.Fatal("no deadlock detected in a cross-stripe cycle")
	}
	if _, _, dl := m.Counts(); dl != int64(deadlocks) {
		t.Errorf("deadlock counter %d does not match observed %d", dl, deadlocks)
	}
	// Every requester released: the table and the registry must be empty.
	if n := m.Keys(); n != 0 {
		t.Errorf("%d keys still locked after every transaction released", n)
	}
	if n := len(m.ids.owners); n != 0 {
		t.Errorf("%d transactions still registered after ReleaseAll", n)
	}
}

// TestStripeKeysSpreadOverTable pins the hash split between stripeOf and a
// stripe's table: the keys of one stripe must reach every part of the
// table, so the home slot may not read the bits the stripe was chosen by.
// 4 096 keys of stripe 0 homed in a 1 024-slot table leave about e^-4 of
// the slots unused; if the home slot shared the stripe's six bits they
// could reach only one slot in 64.
func TestStripeKeysSpreadOverTable(t *testing.T) {
	m := NewManager()
	const slots = 1024
	used := make(map[uint64]bool)
	for row, n := uint64(0), 0; n < 4*slots; row++ {
		key := Key{Table: 3, Row: row}
		if m.stripeOf(key) != &m.stripes[0] {
			continue
		}
		n++
		used[keyHash(key)>>(64-10)] = true
	}
	if len(used) < slots*9/10 {
		t.Fatalf("the keys of one stripe reach %d of %d home slots", len(used), slots)
	}
}
