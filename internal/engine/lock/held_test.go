package lock

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"tpccmodel/internal/rng"
)

// linearHeld is the held set as a plain list scanned on every lookup: the
// oracle an Owner's hashed lookups must agree with.
type linearHeld struct {
	keys []heldLock
}

func (o *linearHeld) find(key Key) (int, bool) {
	for i := range o.keys {
		if o.keys[i].key == key {
			return i, true
		}
	}
	return 0, false
}

// acquire applies a granted request the way Lock must: a new key is
// appended, an Exclusive request on a Shared key upgrades it in place, and
// anything else leaves the set alone.
func (o *linearHeld) acquire(key Key, mode Mode) {
	if i, ok := o.find(key); ok {
		if mode == Exclusive {
			o.keys[i].mode = Exclusive
		}
		return
	}
	o.keys = append(o.keys, heldLock{key: key, mode: mode})
}

// TestHeldSetMatchesLinearOracle drives one transaction at a time through a
// seeded sequence of Shared and Exclusive requests, re-entrant ones and S→X
// upgrades among them, on held sets from a few keys to 4 000, so the index
// doubles, repeatedly, and is then reused at every size. After every
// request the Owner's held set must list exactly the oracle's locks in the
// oracle's order, and a lookup of a held or an unheld key must agree with
// the oracle's scan. Every transaction runs on one Owner, so each after the
// first reuses the list (and the index) the previous Release emptied: a
// stale index entry shows up as a wrong lookup. After each release a
// second transaction must take every released key in X at once.
func TestHeldSetMatchesLinearOracle(t *testing.T) {
	m := NewManager()
	r := rng.New(28)
	sizes := []int{4000, 9, 17, 3, 400, minIndex / 2, minIndex/2 + 1, 100, 2000, 1, 40}
	for range 12 {
		sizes = append(sizes, 1+int(r.Int63n(1000)))
	}
	var o, other Owner
	for j, n := range sizes {
		txn := TxnID(1 + 2*j)
		o.Begin(txn)
		var oracle linearHeld
		// Draw 2n requests over n rows of three tables, so about half
		// repeat a key the transaction already holds.
		for range 2 * n {
			key := Key{Table: 1 + uint32(r.Int63n(3)), Row: uint64(r.Int63n(int64(n)))}
			mode := Shared
			if r.Int63n(2) == 0 {
				mode = Exclusive
			}
			if err := m.Lock(&o, key, mode); err != nil {
				t.Fatalf("size %d: Lock(%v, %v): %v", n, key, mode, err)
			}
			oracle.acquire(key, mode)

			if !slices.Equal(o.keys, oracle.keys) {
				t.Fatalf("size %d: held set diverged from the oracle after %v %v", n, key, mode)
			}
			probe := Key{Table: 1 + uint32(r.Int63n(3)), Row: uint64(r.Int63n(int64(2 * n)))}
			gi, gok := o.find(probe)
			wi, wok := oracle.find(probe)
			if gi != wi || gok != wok {
				t.Fatalf("size %d: find(%v) = %d,%v, oracle says %d,%v", n, probe, gi, gok, wi, wok)
			}
		}
		if got := o.Held(); got != len(oracle.keys) {
			t.Fatalf("size %d: Held = %d, oracle holds %d", n, got, len(oracle.keys))
		}
		m.Release(&o)
		if got := o.Held(); got != 0 {
			t.Fatalf("size %d: Held after Release = %d", n, got)
		}

		other.Begin(txn + 1)
		for _, h := range oracle.keys {
			if err := m.Lock(&other, h.key, Exclusive); err != nil {
				t.Fatalf("size %d: %v still locked after Release: %v", n, h.key, err)
			}
		}
		m.Release(&other)
	}
	if n := m.Keys(); n != 0 {
		t.Errorf("%d lock states left after every transaction released", n)
	}
	if _, waits, _ := m.Counts(); waits != 0 {
		t.Errorf("%d requests waited; every one should have been granted at once", waits)
	}
}

// TestUnblockedReleaseSkipsDetector: a transaction that never waited takes
// its locks and releases them all without touching the wait-for graph's
// mutex, here held by the test for the whole run.
func TestUnblockedReleaseSkipsDetector(t *testing.T) {
	m := NewManager()
	m.g.mu.Lock()
	defer m.g.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var o Owner
		o.Begin(1)
		for i := range 3 * minIndex {
			mode := Shared
			if i%2 == 0 {
				mode = Exclusive
			}
			if err := m.Lock(&o, k(uint64(i)), mode); err != nil {
				t.Error(err)
			}
		}
		m.Release(&o)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an uncontended transaction's Lock/Release blocked on the detector mutex")
	}
}

// BenchmarkAcquireReleaseAll runs transactions that take uncontended locks,
// alternately Exclusive and Shared on distinct stock rows, and then release
// them all; ns/lock is the cost per lock, which must not grow with the
// number held. Every transaction runs on one Owner, as one worker's
// transactions do. locks=400,20 alternates a Stock-Level-sized transaction
// with a small one, which must not pay for the index the large one grew.
func BenchmarkAcquireReleaseAll(b *testing.B) {
	for _, sizes := range [][]int{{4}, {40}, {400}, {4000}, {400, 20}} {
		name := strings.Trim(strings.ReplaceAll(fmt.Sprint(sizes), " ", ","), "[]")
		b.Run("locks="+name, func(b *testing.B) {
			m := NewManager()
			rows := make([]int64, 100000)
			rng.New(1).Perm(rows)
			keys := make([]Key, slices.Max(sizes))
			for i, row := range rows[:len(keys)] {
				keys[i] = Key{Table: 2, Row: uint64(row)}
			}
			var o Owner
			locks := 0
			b.ReportAllocs()
			b.ResetTimer()
			for j := range b.N {
				o.Begin(TxnID(j + 1))
				n := sizes[j%len(sizes)]
				for i, key := range keys[:n] {
					mode := Shared
					if i%2 == 0 {
						mode = Exclusive
					}
					if err := m.Lock(&o, key, mode); err != nil {
						b.Fatal(err)
					}
				}
				m.Release(&o)
				locks += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(locks), "ns/lock")
		})
	}
}
