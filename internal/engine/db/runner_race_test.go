package db

import (
	"sync"
	"testing"
	"time"

	"tpccmodel/internal/tpcc"
)

// TestRunnerCountersConcurrentReads reads a Runner's counters from other
// goroutines while it executes, and checks the shed path keeps workers
// alive. Run under -race this is the regression test for the atomic
// counter conversion: the old int fields tore under concurrent Counts().
func TestRunnerCountersConcurrentReads(t *testing.T) {
	d := newLoaded(t, 2048)
	rn := NewRunner(d, 7, tpcc.DefaultMix())
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				c := rn.Counts()
				var total int64
				for _, n := range c {
					total += n
				}
				total += rn.Retries() + rn.Sheds()
				if total < last {
					t.Error("counters went backwards")
					return
				}
				last = total
				time.Sleep(time.Microsecond)
			}
		}()
	}
	if err := rn.Run(500); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	var total int64
	for _, n := range rn.Counts() {
		total += n
	}
	if total != 500 {
		t.Errorf("acknowledged %d of 500 transactions", total)
	}
}

// TestRunConcurrentPolicyAggregates runs workers concurrently and checks
// the aggregated stats account for every transaction.
func TestRunConcurrentPolicyAggregates(t *testing.T) {
	d := newLoaded(t, 2048)
	st, err := RunConcurrentPolicy(d, 11, tpcc.DefaultMix(), 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	if st.Crashed {
		t.Fatal("no faults injected, yet a crash was reported")
	}
	if got := st.Acknowledged() + st.Sheds; got != 600 {
		t.Errorf("acked+shed = %d, want 600", got)
	}
}

// TestRunStatsCountOnlyTheirRun: the lock and version-store counters a
// RunStats carries are deltas over its own run, so a warmup run before it
// counts in neither. Under ssi with 4 workers the warmup acquires locks,
// waits, and loses writers to conflicts and the dangerous-structure check.
func TestRunStatsCountOnlyTheirRun(t *testing.T) {
	d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 2048, CC: CCSSI})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}
	if _, err := RunConcurrentPolicy(d, 5, tpcc.DefaultMix(), 300, 4); err != nil {
		t.Fatal(err)
	}
	acq0, waits0, dead0 := d.LockCounts()
	conflicts0, ssi0 := d.WriteConflicts(), d.SSIAborts()
	if acq0 == 0 {
		t.Fatal("the warmup acquired no locks")
	}
	st, err := RunConcurrentPolicy(d, 6, tpcc.DefaultMix(), 600, 4)
	if err != nil {
		t.Fatal(err)
	}
	acq, waits, dead := d.LockCounts()
	want := [5]int64{acq - acq0, waits - waits0, dead - dead0, d.WriteConflicts() - conflicts0, d.SSIAborts() - ssi0}
	got := [5]int64{st.LockAcquires, st.LockWaits, st.Deadlocks, st.WriteConflicts, st.SSIAborts}
	if got != want {
		t.Errorf("RunStats (acquires, waits, deadlocks, conflicts, ssi aborts) = %v, want the run's deltas %v", got, want)
	}
}
