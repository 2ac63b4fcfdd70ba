package db

import (
	"testing"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/tpcc"
)

func TestConsistencyAfterLoad(t *testing.T) {
	d := newLoaded(t, 1<<18)
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyAfterConcurrentRun(t *testing.T) {
	d := newLoaded(t, 1<<18)
	if err := RunConcurrent(d, 53, tpcc.DefaultMix(), 600, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

func TestConsistencyAfterCrashRecovery(t *testing.T) {
	d, err := Open(Config{Warehouses: 1, PageSize: 4096, BufferPages: 1024})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Load(1); err != nil {
		t.Fatal(err)
	}
	if err := RunConcurrent(d, 59, tpcc.DefaultMix(), 200, 4); err != nil {
		t.Fatal(err)
	}
	if err := d.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := d.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
}

// TestConsistencyDetectsCorruption proves the checker has teeth: corrupt
// one district counter and it must complain.
func TestConsistencyDetectsCorruption(t *testing.T) {
	d := newLoaded(t, 1<<18)
	// Bump district (0,0)'s next_o_id without creating the order.
	rid, ok := d.idx[idxDistrict].get(0)
	if !ok {
		t.Fatal("no district (0,0)")
	}
	buf := make([]byte, tpcc.TupleLen[core.District])
	if err := d.heaps[core.District].Read(storage.UnpackRID(rid), buf); err != nil {
		t.Fatal(err)
	}
	var rec DistrictRec
	rec.Unmarshal(buf)
	rec.NextOID += 5
	rec.Marshal(buf)
	if err := d.heaps[core.District].Update(storage.UnpackRID(rid), buf); err != nil {
		t.Fatal(err)
	}
	if err := d.CheckConsistency(); err == nil {
		t.Fatal("corrupted next_o_id not detected")
	}
}
