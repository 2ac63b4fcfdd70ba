package index

import (
	"sort"
	"testing"
	"testing/quick"

	"tpccmodel/internal/rng"
)

func TestInsertGet(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 1000; i++ {
		if err := tr.Insert(i*7%1000, i); err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if tr.Len() != 1000 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		v, ok := tr.Get(i * 7 % 1000)
		if !ok || v != i {
			t.Fatalf("Get(%d) = %d, %v", i*7%1000, v, ok)
		}
	}
	if _, ok := tr.Get(5000); ok {
		t.Error("absent key found")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInsertDuplicate(t *testing.T) {
	tr := New()
	if err := tr.Insert(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert(1, 20); err != ErrDuplicate {
		t.Errorf("expected ErrDuplicate, got %v", err)
	}
	tr.Set(1, 30)
	if v, _ := tr.Get(1); v != 30 {
		t.Errorf("Set did not replace: %d", v)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d after Set of existing key", tr.Len())
	}
}

func TestDelete(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 500; i++ {
		tr.Set(i, i)
	}
	for i := uint64(0); i < 500; i += 2 {
		if err := tr.Delete(i); err != nil {
			t.Fatalf("delete %d: %v", i, err)
		}
	}
	if tr.Len() != 250 {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := uint64(0); i < 500; i++ {
		_, ok := tr.Get(i)
		if ok != (i%2 == 1) {
			t.Fatalf("Get(%d) present=%v", i, ok)
		}
	}
	if err := tr.Delete(1000); err != ErrNotFound {
		t.Errorf("expected ErrNotFound, got %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteAllThenReuse(t *testing.T) {
	tr := New()
	for round := 0; round < 3; round++ {
		for i := uint64(0); i < 300; i++ {
			tr.Set(i, i+uint64(round))
		}
		for i := uint64(0); i < 300; i++ {
			if err := tr.Delete(i); err != nil {
				t.Fatalf("round %d delete %d: %v", round, i, err)
			}
		}
		if tr.Len() != 0 {
			t.Fatalf("round %d: Len = %d", round, tr.Len())
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
}

func TestIterationOrder(t *testing.T) {
	tr := New()
	keys := []uint64{50, 10, 90, 30, 70, 20, 80, 40, 60, 100}
	for _, k := range keys {
		tr.Set(k, k*2)
	}
	var got []uint64
	tr.AscendRange(0, ^uint64(0), func(k, v uint64) bool {
		if v != k*2 {
			t.Fatalf("value mismatch at %d", k)
		}
		got = append(got, k)
		return true
	})
	if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
		t.Errorf("iteration not sorted: %v", got)
	}
	if len(got) != len(keys) {
		t.Errorf("iterated %d keys, want %d", len(got), len(keys))
	}
}

func TestAscendRangeBounds(t *testing.T) {
	tr := New()
	for i := uint64(0); i < 100; i++ {
		tr.Set(i*10, i)
	}
	var got []uint64
	tr.AscendRange(250, 500, func(k, v uint64) bool {
		got = append(got, k)
		return true
	})
	want := []uint64{250, 260, 270, 280, 290, 300, 310, 320, 330, 340, 350,
		360, 370, 380, 390, 400, 410, 420, 430, 440, 450, 460, 470, 480, 490, 500}
	if len(got) != len(want) {
		t.Fatalf("got %d keys, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Early stop.
	count := 0
	tr.AscendRange(0, ^uint64(0), func(k, v uint64) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Errorf("early stop iterated %d", count)
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	for _, k := range []uint64{100, 200, 300, 400} {
		tr.Set(k, k+1)
	}
	if k, v, ok := tr.Min(150); !ok || k != 200 || v != 201 {
		t.Errorf("Min(150) = %d,%d,%v", k, v, ok)
	}
	if k, _, ok := tr.Min(100); !ok || k != 100 {
		t.Errorf("Min(100) = %d,%v", k, ok)
	}
	if _, _, ok := tr.Min(500); ok {
		t.Error("Min beyond max should be not-ok")
	}
	if k, v, ok := tr.Max(350); !ok || k != 300 || v != 301 {
		t.Errorf("Max(350) = %d,%d,%v", k, v, ok)
	}
	if k, _, ok := tr.Max(^uint64(0)); !ok || k != 400 {
		t.Errorf("Max(inf) = %d,%v", k, ok)
	}
	if _, _, ok := tr.Max(50); ok {
		t.Error("Max below min should be not-ok")
	}
}

func TestEmptyTree(t *testing.T) {
	tr := New()
	if _, ok := tr.Get(1); ok {
		t.Error("empty Get")
	}
	if _, _, ok := tr.Min(0); ok {
		t.Error("empty Min")
	}
	if _, _, ok := tr.Max(^uint64(0)); ok {
		t.Error("empty Max")
	}
	if err := tr.Validate(); err != nil {
		t.Error(err)
	}
}

// TestRandomizedAgainstReference property-tests the tree against a map +
// sorted-slice reference model through interleaved inserts and deletes.
func TestRandomizedAgainstReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		tr := New()
		ref := make(map[uint64]uint64)
		for op := 0; op < 4000; op++ {
			k := uint64(r.Int63n(800))
			switch r.Int63n(3) {
			case 0, 1:
				v := r.Uint64()
				tr.Set(k, v)
				ref[k] = v
			case 2:
				err := tr.Delete(k)
				_, existed := ref[k]
				if existed != (err == nil) {
					t.Logf("delete(%d): existed=%v err=%v", k, existed, err)
					return false
				}
				delete(ref, k)
			}
		}
		if tr.Len() != len(ref) {
			t.Logf("len %d != ref %d", tr.Len(), len(ref))
			return false
		}
		if err := tr.Validate(); err != nil {
			t.Log(err)
			return false
		}
		// Full-order comparison.
		keys := make([]uint64, 0, len(ref))
		for k := range ref {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		i := 0
		okAll := true
		tr.AscendRange(0, ^uint64(0), func(k, v uint64) bool {
			if i >= len(keys) || k != keys[i] || v != ref[k] {
				okAll = false
				return false
			}
			i++
			return true
		})
		return okAll && i == len(keys)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestKeyPackingOrder(t *testing.T) {
	// Lexicographic tuple order must match packed uint64 order.
	if !(KeyWDO(1, 2, 3) < KeyWDO(1, 2, 4)) ||
		!(KeyWDO(1, 2, 1<<39) < KeyWDO(1, 3, 0)) ||
		!(KeyWDO(1, 9, 1<<39) < KeyWDO(2, 0, 0)) {
		t.Error("KeyWDO ordering broken")
	}
	lo, hi := RangeWDO(3, 4)
	if !(lo <= KeyWDO(3, 4, 0) && KeyWDO(3, 4, 1<<40-1) <= hi) {
		t.Error("RangeWDO does not cover its district")
	}
	if hi >= KeyWDO(3, 5, 0) || lo <= KeyWDO(3, 3, 1<<40-1) {
		t.Error("RangeWDO overlaps neighbors")
	}

	lo, hi = RangeWDOLOrder(1, 2, 3)
	if !(lo <= KeyWDOL(1, 2, 3, 0) && KeyWDOL(1, 2, 3, 9) <= hi) {
		t.Error("RangeWDOLOrder does not cover its order")
	}
	if hi >= KeyWDOL(1, 2, 4, 0) {
		t.Error("RangeWDOLOrder overlaps next order")
	}

	lo, hi = RangeWDNC(1, 2, 77)
	if !(lo <= KeyWDNC(1, 2, 77, 0) && KeyWDNC(1, 2, 77, 2999) <= hi) {
		t.Error("RangeWDNC does not cover its name")
	}
	if hi >= KeyWDNC(1, 2, 78, 0) {
		t.Error("RangeWDNC overlaps next name")
	}

	lo, hi = RangeWDCO(1, 2, 3)
	if !(lo <= KeyWDCO(1, 2, 3, 0) && KeyWDCO(1, 2, 3, 1<<28-1) <= hi) {
		t.Error("RangeWDCO does not cover its customer")
	}
	if hi >= KeyWDCO(1, 2, 4, 0) {
		t.Error("RangeWDCO overlaps next customer")
	}
}

func TestLargeSequentialInsert(t *testing.T) {
	tr := New()
	const n = 100000
	for i := uint64(0); i < n; i++ {
		tr.Set(i, i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Spot checks.
	for _, k := range []uint64{0, 1, n / 2, n - 1} {
		if v, ok := tr.Get(k); !ok || v != k {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

// TestDrainToEmptyResetsRoot empties a three-level tree in the order that
// leaves the root an inner node whose last child cascades up: the right
// inner node is cut down to one leaf while still a child, the left one is
// emptied so the root collapses onto the right, then that leaf goes. The
// tree must come out an empty leaf that every operation can use again.
func TestDrainToEmptyResetsRoot(t *testing.T) {
	tr := New()
	for k := uint64(0); k < drainKeys; k++ {
		tr.Set(k, k+1)
	}
	if tr.root.leaf || tr.root.kids[0].leaf {
		t.Fatalf("%d keys built fewer than three levels", drainKeys)
	}
	for _, r := range drainOrder {
		for k := r[0]; k < r[1]; k++ {
			if err := tr.Delete(k); err != nil {
				t.Fatalf("delete(%d): %v", k, err)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("after deleting [%d,%d): %v", r[0], r[1], err)
		}
	}
	if tr.Len() != 0 || !tr.root.leaf {
		t.Fatalf("drained tree has %d keys, leaf root %v", tr.Len(), tr.root.leaf)
	}
	if _, _, ok := tr.Min(0); ok {
		t.Error("Min found a key in an empty tree")
	}
	if _, _, ok := tr.Max(^uint64(0)); ok {
		t.Error("Max found a key in an empty tree")
	}
	it := tr.Seek(5)
	if _, _, ok := it.Next(); ok {
		t.Error("Seek found a key in an empty tree")
	}
	if _, ok := tr.Get(5); ok {
		t.Error("Get found a key in an empty tree")
	}
	if err := tr.Insert(5, 50); err != nil {
		t.Fatal(err)
	}
	if v, ok := tr.Get(5); !ok || v != 50 || tr.Len() != 1 {
		t.Errorf("after reinsert Get(5) = %d,%v len %d", v, ok, tr.Len())
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestRandomDrainOrders empties three-level trees in seeded random orders,
// validating the structure as the levels collapse.
func TestRandomDrainOrders(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		tr := New()
		keys := make([]uint64, drainKeys)
		for i := range keys {
			keys[i] = uint64(i)
			tr.Set(keys[i], 1)
		}
		r := rng.New(seed)
		for i := len(keys) - 1; i > 0; i-- {
			j := int(r.Int63n(int64(i + 1)))
			keys[i], keys[j] = keys[j], keys[i]
		}
		// Blocks of neighbouring keys, so whole leaves and inner nodes empty
		// while others are still full.
		for _, k := range keys {
			base := k / 40 * 40
			for d := uint64(0); d < 40; d++ {
				_ = tr.Delete(base + d)
			}
			if k%97 == 0 {
				if err := tr.Validate(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		}
		if _, _, ok := tr.Min(0); ok || tr.Len() != 0 {
			t.Fatalf("seed %d: %d keys left", seed, tr.Len())
		}
	}
}
