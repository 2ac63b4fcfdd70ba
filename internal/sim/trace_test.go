package sim

import (
	"reflect"
	"sync"
	"testing"

	"tpccmodel/internal/workload"
)

// TestTraceReplayMatchesGenerator: replaying a recorded trace must reproduce
// the generator's transaction stream exactly — same types, same accesses, in
// the same order.
func TestTraceReplayMatchesGenerator(t *testing.T) {
	cfg := workload.DefaultConfig(1, 7)
	const txns = 2000
	tr, err := RecordTrace(cfg, txns)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Txns() != txns {
		t.Fatalf("Txns() = %d, want %d", tr.Txns(), txns)
	}
	gen, err := workload.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want, got workload.Txn
	var accs int64
	for i := int64(0); i < txns; i++ {
		gen.Next(&want)
		tr.Replay(i, &got)
		if got.Type != want.Type {
			t.Fatalf("txn %d: type %v, want %v", i, got.Type, want.Type)
		}
		if len(got.Accesses) != len(want.Accesses) {
			t.Fatalf("txn %d: %d accesses, want %d", i, len(got.Accesses), len(want.Accesses))
		}
		for k := range want.Accesses {
			if got.Accesses[k].Rel != want.Accesses[k].Rel ||
				got.Accesses[k].Tuple != want.Accesses[k].Tuple {
				t.Fatalf("txn %d access %d: %+v, want %+v", i, k, got.Accesses[k], want.Accesses[k])
			}
		}
		accs += int64(len(want.Accesses))
	}
	if tr.Accesses() != accs {
		t.Fatalf("Accesses() = %d, want %d", tr.Accesses(), accs)
	}
}

// TestTraceReplayRandomOrder: replay is positional, so any index may be
// replayed at any time and repeatedly into a reused Txn.
func TestTraceReplayRandomOrder(t *testing.T) {
	cfg := workload.DefaultConfig(1, 9)
	tr, err := RecordTrace(cfg, 100)
	if err != nil {
		t.Fatal(err)
	}
	var a, b workload.Txn
	for _, i := range []int64{99, 0, 42, 0, 99} {
		tr.Replay(i, &a)
		tr.Replay(i, &b)
		if a.Type != b.Type || !reflect.DeepEqual(a.Accesses, b.Accesses) {
			t.Fatalf("replay of txn %d is not stable", i)
		}
	}
}

// TestTraceCacheMemoizes: same key returns the same *Trace; concurrent
// requests record exactly once; different page sizes share (the stream is
// page-size independent) while different seeds or lengths do not.
func TestTraceCacheMemoizes(t *testing.T) {
	c := NewTraceCache()
	cfg := workload.DefaultConfig(1, 11)

	const goroutines = 8
	got := make([]*Trace, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			tr, err := c.Get(cfg, 200)
			if err != nil {
				t.Error(err)
			}
			got[i] = tr
		}()
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if got[i] != got[0] {
			t.Fatal("concurrent Gets returned different traces for one key")
		}
	}

	cfg8k := cfg
	cfg8k.DB.PageSize = 8192
	shared, err := c.Get(cfg8k, 200)
	if err != nil {
		t.Fatal(err)
	}
	if shared != got[0] {
		t.Error("page size should not split the trace key")
	}

	cfgSeed := cfg
	cfgSeed.Seed = 12
	other, err := c.Get(cfgSeed, 200)
	if err != nil {
		t.Fatal(err)
	}
	longer, err := c.Get(cfg, 300)
	if err != nil {
		t.Fatal(err)
	}
	if other == got[0] || longer == got[0] {
		t.Error("distinct seed or length must yield a distinct trace")
	}
	if longer.Txns() != 300 {
		t.Errorf("longer trace has %d txns, want 300", longer.Txns())
	}
}
