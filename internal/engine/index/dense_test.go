package index

import (
	"errors"
	"sync"
	"testing"
)

func TestDenseSetGetDelete(t *testing.T) {
	d := NewDense()
	keys := []uint64{0, 1, pageMask, pageMask + 1, KeyWI(0, 99999), KeyWDC(3, 9, 2999), DenseLimit - 1}
	for i, k := range keys {
		if err := d.Set(k, uint64(i)); err != nil {
			t.Fatalf("Set(%#x): %v", k, err)
		}
	}
	if d.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(keys))
	}
	for i, k := range keys {
		// Key 0 carries value 0: an all-zero packed RID must round-trip.
		if v, ok := d.Get(k); !ok || v != uint64(i) {
			t.Fatalf("Get(%#x) = %d,%v want %d", k, v, ok, i)
		}
	}
	for _, k := range []uint64{2, pageMask + 2, 1 << 30, DenseLimit - 2} {
		if _, ok := d.Get(k); ok {
			t.Errorf("absent key %#x found", k)
		}
	}
	if err := d.Set(1, 77); err != nil || d.Len() != len(keys) {
		t.Fatalf("overwrite: %v, Len %d", err, d.Len())
	}
	if v, _ := d.Get(1); v != 77 {
		t.Errorf("Set did not replace: %d", v)
	}
	if err := d.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Get(0); ok {
		t.Error("deleted key found")
	}
	for _, k := range []uint64{0, 5, 1 << 30} {
		if err := d.Delete(k); err != ErrNotFound {
			t.Errorf("Delete(%#x) of an absent key = %v, want ErrNotFound", k, err)
		}
	}
	if d.Len() != len(keys)-1 {
		t.Errorf("Len = %d after one delete", d.Len())
	}
}

func TestDenseRefusesOutOfRange(t *testing.T) {
	d := NewDense()
	for _, kv := range [][2]uint64{{DenseLimit, 1}, {^uint64(0), 1}, {5, ^uint64(0)}} {
		if err := d.Set(kv[0], kv[1]); !errors.Is(err, ErrKeyRange) {
			t.Errorf("Set(%#x, %#x) = %v, want ErrKeyRange", kv[0], kv[1], err)
		}
		if _, ok := d.Get(kv[0]); ok {
			t.Errorf("refused key %#x found", kv[0])
		}
	}
	if d.Len() != 0 || len(*d.dir.Load()) != 0 {
		t.Errorf("refused sets left %d keys, a directory of %d", d.Len(), len(*d.dir.Load()))
	}
}

// TestDenseMemoryFollowsKeys loads one warehouse's stock keys and the
// largest key: pages are allocated only where keys are, so the far key
// costs a directory entry per table below it, a table and one page.
func TestDenseMemoryFollowsKeys(t *testing.T) {
	d := NewDense()
	for i := int64(0); i < 100000; i++ {
		if err := d.Set(KeyWI(0, i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Set(DenseLimit-1, 1); err != nil {
		t.Fatal(err)
	}
	dir := *d.dir.Load()
	tables, pages := 0, 0
	for _, tab := range dir {
		if tab == nil {
			continue
		}
		tables++
		for i := range tab {
			if tab[i].Load() != nil {
				pages++
			}
		}
	}
	if len(dir) != DenseLimit>>(pageBits+tableBits) || tables != 2 || pages != 26 {
		t.Errorf("directory %d, tables %d, pages %d; want %d, 2, 26",
			len(dir), tables, pages, DenseLimit>>(pageBits+tableBits))
	}
}

// TestDenseConcurrentReaders races lock-free Gets of resident keys against
// one writer that sets and deletes other keys, allocating pages and growing
// the directory table by table. Run it under -race.
func TestDenseConcurrentReaders(t *testing.T) {
	d := NewDense()
	const resident = 3 * (pageMask + 1)
	for k := uint64(0); k < resident; k++ {
		if err := d.Set(k, k*2); err != nil {
			t.Fatal(err)
		}
	}
	// The writer's keys: a stride through fresh pages of table 0, then one
	// key in each of tables 1..tables, each a directory grow.
	const tables = 40
	var churn []uint64
	for k := uint64(resident); k < 1<<(pageBits+tableBits); k += 997 {
		churn = append(churn, k)
	}
	for tab := uint64(1); tab <= tables; tab++ {
		churn = append(churn, tab<<(pageBits+tableBits)|tab)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g uint64) {
			defer wg.Done()
			for i := g; ; i += 7919 {
				select {
				case <-stop:
					return
				default:
				}
				k := i % resident
				if v, ok := d.Get(k); !ok || v != k*2 {
					t.Errorf("resident Get(%d) = %d,%v", k, v, ok)
					return
				}
				c := churn[i%uint64(len(churn))]
				if v, ok := d.Get(c); ok && v != c+1 {
					t.Errorf("churn Get(%#x) = %d, a value never written", c, v)
					return
				}
			}
		}(uint64(g))
	}
	for round := 0; round < 3; round++ {
		for _, c := range churn {
			if err := d.Set(c, c+1); err != nil {
				t.Error(err)
			}
		}
		for _, c := range churn {
			if err := d.Delete(c); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if d.Len() != resident {
		t.Errorf("Len = %d, want %d", d.Len(), resident)
	}
}
