//go:build !race

// AllocsPerRun is unreliable under the race detector.

package lock

import "testing"

// TestOwnerReuseAllocatesNothing runs 1 000 transactions on one Owner, each
// taking 40 uncontended locks, S and X alternately, one an upgrade, and
// releasing them: once the first has grown the held set and the stripes
// their tables, none allocates, and the manager ends with no lock state.
func TestOwnerReuseAllocatesNothing(t *testing.T) {
	m := NewManager()
	var o Owner
	txn := TxnID(0)
	run := func() {
		txn++
		o.Begin(txn)
		for i := range 40 {
			mode := Shared
			if i%2 == 0 {
				mode = Exclusive
			}
			if err := m.Lock(&o, Key{Table: 2, Row: uint64(i) * 7919}, mode); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Lock(&o, Key{Table: 2, Row: 7919}, Exclusive); err != nil {
			t.Fatal(err)
		}
		if o.Held() != 40 {
			t.Fatalf("held %d locks, want 40", o.Held())
		}
		m.Release(&o)
	}
	if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
		t.Errorf("%v allocs per transaction on a reused Owner, want 0", allocs)
	}
	if o.Held() != 0 || m.Keys() != 0 {
		t.Errorf("after 1 000 transactions the Owner holds %d and the manager has %d lock states, want 0 and 0", o.Held(), m.Keys())
	}
}
