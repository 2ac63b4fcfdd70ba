package db

import (
	"testing"

	"tpccmodel/internal/tpcc"
)

// stateHash is the test-side wrapper over DB.StateHash (the committed
// state digest the -cc differential gates compare).
func stateHash(t *testing.T, d *DB) uint64 {
	t.Helper()
	h, err := d.StateHash()
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// TestPartitionedPoolConcurrent drives the default configuration, whose
// pool holds about a quarter of a warehouse, with 4 workers and checks
// consistency. Under -race this exercises
// concurrent pin/unpin/evict traffic on the one LRU.
func TestPartitionedPoolConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("needs a loaded warehouse")
	}
	d, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(7); err != nil {
		t.Fatal(err)
	}
	if _, err := RunConcurrentPolicy(d, 13, tpcc.DefaultMix(), 800, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}
