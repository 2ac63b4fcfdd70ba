package mvcc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// sameShardKeys returns n keys of table 1 that hash to one shard.
func sameShardKeys(s *Store, n int) []Key {
	first := Key{Table: 1, Row: 1}
	keys := []Key{first}
	for row := uint64(2); len(keys) < n; row++ {
		if k := (Key{Table: 1, Row: row}); s.shardOf(k) == s.shardOf(first) {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestResolveRefusesAnAbortedImage is the abort race, one step at a time:
// a reader loads the gate and reads writer W's uncommitted heap image; W
// restores the heap and aborts; only then does the reader resolve. The
// image must not come back as visible: Resolve must refuse the pass, and
// the reader's next pass reads the restored heap. Without the gate the
// resolution finds no writer (or no chain) and returns the aborted bytes.
// In the idle cases the reader loads the gate before W's first write, with
// no chain in the shard: a fast path that trusted that first load alone
// would take the aborted image.
func TestResolveRefusesAnAbortedImage(t *testing.T) {
	for _, tc := range []struct {
		name      string
		committed []byte // the row's committed image; nil: W inserts it
		idle      bool   // the gate is loaded before W writes
	}{
		{"update", []byte("COMMITTED"), false},
		{"insert", nil, false},
		{"idle-update", []byte("COMMITTED"), true},
		{"idle-insert", nil, true},
	} {
		for _, ssi := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/ssi=%v", tc.name, ssi), func(t *testing.T) {
				s := NewStore()
				s.ssi = ssi
				heap := map[Key][]byte{}
				if tc.committed != nil {
					heap[k0] = tc.committed
				}
				var w, r Txn
				s.Begin(&r, nil)
				s.Begin(&w, nil)
				var g Gate
				if tc.idle {
					g = s.Gate(k0)
				}
				if err := s.Write(&w, k0, tc.committed); err != nil {
					t.Fatal(err)
				}
				heap[k0] = []byte("DIRTYDIRT")
				if !tc.idle {
					g = s.Gate(k0)
				}
				buf := append([]byte(nil), heap[k0]...)
				// W's rollback restores the heap, then pops its version.
				if tc.committed != nil {
					heap[k0] = tc.committed
				} else {
					delete(heap, k0)
				}
				s.Abort(&w)
				if live, ok := s.Resolve(&r, k0, g, true, buf); ok && live {
					t.Fatalf("reader resolved an aborted image: %q", buf)
				}
				v, live := readAt(s, &r, k0, heap)
				if want := tc.committed != nil; live != want || live && v != 'C' {
					t.Fatalf("reread = (%q, live %v), want the committed state", v, live)
				}
				s.Commit(&r, nil)
			})
		}
	}
}

// TestGateMovesOnEveryChainMutation pins when a shard's gate word changes:
// on a chain's allocation, removal (abort of a created chain, prune,
// Reset) and pop, each time to a value it never had, with the busy bit set
// exactly while the shard has a chain.
func TestGateMovesOnEveryChainMutation(t *testing.T) {
	s := NewStore()
	keys := sameShardKeys(s, 2)
	a, b := keys[0], keys[1]
	sh := s.shardOf(a)
	seen := map[uint64]bool{sh.gate.Load(): true}
	step := func(what string, busy bool) {
		t.Helper()
		g := sh.gate.Load()
		if seen[g] {
			t.Fatalf("%s: gate %#x repeats an earlier value", what, g)
		}
		seen[g] = true
		if got := g&gateBusy != 0; got != busy {
			t.Fatalf("%s: busy bit %v with %d chains", what, got, sh.chains.Len())
		}
	}
	var w, hold Txn
	var ret RetireSet
	s.Begin(&w, &ret)
	must(t, s.Write(&w, a, []byte{1}))
	step("alloc", true)
	s.Abort(&w)
	step("abort of a created chain", false)

	s.Begin(&hold, nil) // holds the watermark below the next commit
	s.Begin(&w, &ret)
	must(t, s.Write(&w, a, []byte{1}))
	step("alloc", true)
	must(t, s.Write(&w, b, nil))
	step("second alloc", true)
	s.Commit(&w, &ret)
	s.Begin(&w, &ret)
	must(t, s.Write(&w, a, []byte{2})) // a's chain survives: it has a commit
	s.Abort(&w)
	step("pop", true)
	s.Commit(&hold, nil)

	s.Begin(&w, &ret) // the watermark has passed both commits: prune
	if sh.chains.Len() != 0 {
		t.Fatalf("%d chains left after the prune", sh.chains.Len())
	}
	if g := sh.gate.Load(); g&gateBusy != 0 || seen[g] {
		t.Fatalf("prune left gate %#x", g)
	}
	s.Abort(&w)

	before := sh.gate.Load()
	s.Reset()
	if g := sh.gate.Load(); g <= before || g&gateBusy != 0 {
		t.Fatalf("Reset took the gate from %#x to %#x", before, g)
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestIdleShardResolvesWithoutMutex: a key whose shard has no chain and
// whose gate did not move resolves without the shard mutex, so a reader
// goes through while the mutex is held. Under SSI it must wait: the read
// leaves a mark.
func TestIdleShardResolvesWithoutMutex(t *testing.T) {
	for _, ssi := range []bool{false, true} {
		s := NewStore()
		s.ssi = ssi
		var r Txn
		s.Begin(&r, nil)
		g := s.Gate(k0)
		sh := s.shardOf(k0)
		sh.mu.Lock()
		done := make(chan bool, 1)
		go func() {
			live, ok := s.Resolve(&r, k0, g, true, []byte{1})
			done <- live && ok
		}()
		var got, unlocked bool
		select {
		case got = <-done:
			unlocked = true
		case <-time.After(200 * time.Millisecond):
		}
		sh.mu.Unlock()
		if !unlocked {
			got = <-done
		}
		switch {
		case ssi && unlocked:
			t.Fatal("ssi resolved a read without the shard mutex: no SIREAD mark")
		case !ssi && !unlocked:
			t.Fatal("a read of an idle shard waited for the shard mutex")
		case !got:
			t.Fatalf("ssi=%v: resolution refused a live heap image", ssi)
		}
		s.Commit(&r, nil)
	}
}

// TestGateStress races readers against writers that abort at random, on a
// few keys of one shard, with the heap modelled as one latched slot per
// key. Every image names the attempt that wrote it, and each attempt's
// outcome is published before the store hears of it (committed before
// Commit, aborted after the heap restore and before Abort), so a reader
// can tell what it was given: a resolved image must be the initial one or
// a committed attempt's. A monitor checks that the shard's gate never goes
// backwards, across a final Reset too. Both sides yield inside the race
// window — a writer with its image in the heap, a reader after its gate
// load and after its heap read — so the window opens on one core too. Run
// it with -race.
func TestGateStress(t *testing.T) {
	const (
		nkeys   = 4
		writers = 2
		readers = 2
		rounds  = 400
	)
	for _, ssi := range []bool{false, true} {
		t.Run(fmt.Sprintf("ssi=%v", ssi), func(t *testing.T) {
			s := NewStore()
			s.ssi = ssi
			keys := sameShardKeys(s, nkeys)
			sh := s.shardOf(keys[0])

			// slot is one row of the modelled heap: its latch, its image
			// (the 8-byte attempt id; nil = no record) and the row's
			// exclusive lock, which a writer holds for its whole attempt.
			type slot struct {
				latch sync.Mutex
				img   []byte
				row   sync.Mutex
			}
			heap := make([]slot, nkeys)
			for i := range heap {
				if i%2 == 0 {
					heap[i].img = make([]byte, 8) // attempt 0: the initial image
				}
			}
			// outcome[id]: 0 in flight, 1 committed, 2 aborted.
			outcome := make([]atomic.Uint32, writers*rounds+1)
			outcome[0].Store(1)

			var wg sync.WaitGroup
			var stop atomic.Bool
			var failed atomic.Value
			fail := func(format string, a ...any) {
				failed.CompareAndSwap(nil, fmt.Sprintf(format, a...))
				stop.Store(true)
			}
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(w)))
					var tx Txn
					var ret RetireSet
					for i := 0; i < rounds && !stop.Load(); i++ {
						id := uint64(w*rounds + i + 1)
						k := rng.Intn(nkeys)
						sl := &heap[k]
						sl.row.Lock()
						s.Begin(&tx, &ret)
						sl.latch.Lock()
						before := sl.img
						sl.latch.Unlock()
						if err := s.Write(&tx, keys[k], before); err != nil {
							s.Abort(&tx)
							sl.row.Unlock()
							continue
						}
						var next []byte
						if before == nil || rng.Intn(4) > 0 { // insert or update; else delete
							next = binary.LittleEndian.AppendUint64(nil, id)
						}
						sl.latch.Lock()
						sl.img = next
						sl.latch.Unlock()
						runtime.Gosched() // let a reader take the dirty image
						if rng.Intn(2) == 0 || ssi && s.PreCommit(&tx) != nil {
							sl.latch.Lock()
							sl.img = before
							sl.latch.Unlock()
							outcome[id].Store(2)
							s.Abort(&tx)
						} else {
							outcome[id].Store(1)
							s.Commit(&tx, &ret)
						}
						sl.row.Unlock()
					}
				}(w)
			}
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(100 + r)))
					var tx Txn
					buf := make([]byte, 8)
					for i := 0; i < rounds && !stop.Load(); i++ {
						s.Begin(&tx, nil)
						for j := 0; j < 8; j++ {
							k := rng.Intn(nkeys)
							var live, ok bool
							for !ok {
								g := s.Gate(keys[k])
								runtime.Gosched()
								heap[k].latch.Lock()
								live = heap[k].img != nil
								copy(buf, heap[k].img)
								heap[k].latch.Unlock()
								runtime.Gosched() // let a writer roll back meanwhile
								live, ok = s.Resolve(&tx, keys[k], g, live, buf)
							}
							if !live {
								continue
							}
							id := binary.LittleEndian.Uint64(buf)
							if o := outcome[id].Load(); o != 1 {
								fail("key %d: reader resolved attempt %d, whose outcome is %d (0 in flight, 2 aborted)", k, id, o)
							}
						}
						if s.ssi && s.PreCommit(&tx) != nil {
							s.Abort(&tx)
						} else {
							s.Commit(&tx, nil)
						}
					}
				}(r)
			}
			monitorDone := make(chan struct{})
			var last uint64
			go func() {
				defer close(monitorDone)
				for !stop.Load() {
					g := sh.gate.Load() &^ gateBusy
					if g < last {
						fail("gate went back from %#x to %#x", last, g)
					}
					last = g
				}
			}()
			wg.Wait()
			stop.Store(true)
			<-monitorDone
			if msg := failed.Load(); msg != nil {
				t.Fatal(msg)
			}
			s.Reset()
			if g := sh.gate.Load(); g&^gateBusy <= last || g&gateBusy != 0 {
				t.Fatalf("Reset took the gate from %#x to %#x", last, g)
			}
		})
	}
}

// BenchmarkSnapshotRead prices one snapshot read's resolution — Gate, then
// Resolve — of a key whose shard has no chain (the fast path: two loads of
// the gate) and of a key with a committed chain older than the reader (the
// shard mutex and a lookup), at 1 and 2 goroutines reading the same key
// under snapshots of their own. ns/op is the time of one goroutine's read
// while the others read too.
func BenchmarkSnapshotRead(b *testing.B) {
	for _, chained := range []bool{false, true} {
		for _, procs := range []int{1, 2} {
			name := fmt.Sprintf("chain=%v/goroutines=%d", chained, procs)
			b.Run(name, func(b *testing.B) {
				s := NewStore()
				if chained {
					var w Txn
					s.Begin(&w, nil)
					if err := s.Write(&w, k0, []byte{0}); err != nil {
						b.Fatal(err)
					}
					s.Commit(&w, nil) // no retire set: the chain stays
				}
				b.ResetTimer()
				var wg sync.WaitGroup
				for p := 0; p < procs; p++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var tx Txn
						s.Begin(&tx, nil)
						buf := []byte{1}
						for i := 0; i < b.N; i++ {
							g := s.Gate(k0)
							if live, ok := s.Resolve(&tx, k0, g, true, buf); !live || !ok {
								b.Error("snapshot read refused")
								return
							}
						}
						s.Commit(&tx, nil)
					}()
				}
				wg.Wait()
			})
		}
	}
}
