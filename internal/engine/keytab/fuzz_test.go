package keytab

import (
	"testing"
)

// Table opcodes (op % 8): puts and gets are the common case, deletes
// half as common, and one in eight ops clears the table.
const (
	opPut    = 0 // 0, 1, 2
	opDelete = 3 // 3, 4
	opGet    = 5 // 5, 6
	opClear  = 7
)

// tapeKey decodes an operation's key from three tape bytes. The low two
// bits of b pick one of four tables and the next two bits set row bit 32
// or 33, so (t, r) and (t^1, r^1<<32) — distinct keys with one Hash — both
// occur and the table must tell them apart by their fields.
func tapeKey(b, lo, hi byte) (uint32, uint64) {
	return uint32(b & 3), uint64(lo) | uint64(hi)<<8 | uint64(b>>2&3)<<32
}

type tkey struct {
	table uint32
	row   uint64
}

// check verifies the table's layout: the count matches the occupied
// slots, the table is at most half full, and every entry is found by a
// probe from its home slot that crosses no empty slot.
func check(t *testing.T, tb *Table[int]) {
	t.Helper()
	n := 0
	mask := uint64(len(tb.slots) - 1)
	for i := range tb.slots {
		s := tb.slots[i]
		if s.v == nil {
			continue
		}
		n++
		for j := tb.home(s.table, s.row); j != uint64(i); j = (j + 1) & mask {
			if tb.slots[j].v == nil {
				t.Fatalf("t%d/%d at slot %d is cut off from its home %d by empty slot %d",
					s.table, s.row, i, tb.home(s.table, s.row), j)
			}
		}
	}
	if n != tb.n {
		t.Fatalf("Len %d, %d occupied slots", tb.n, n)
	}
	if 2*n > len(tb.slots) {
		t.Fatalf("%d entries in %d slots: more than half full", n, len(tb.slots))
	}
}

// FuzzTable drives a Table with a tape of 4-byte operations (opcode, then
// the key bytes tapeKey decodes) against a Go map, checking every result,
// Clear's callbacks, and the layout after each operation.
func FuzzTable(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		var tb Table[int]
		ref := make(map[tkey]*int)
		vals := 0
		for len(data) >= 4 {
			op := data[0] % 8
			table, row := tapeKey(data[1], data[2], data[3])
			k := tkey{table, row}
			data = data[4:]
			switch {
			case op < opDelete:
				vals++
				v := new(int)
				*v = vals
				tb.Put(table, row, v)
				ref[k] = v
			case op < opGet:
				got := tb.Delete(table, row)
				if got != ref[k] {
					t.Fatalf("delete t%d/%d = %p, want %p", table, row, got, ref[k])
				}
				delete(ref, k)
			case op < opClear:
				if got := tb.Get(table, row); got != ref[k] {
					t.Fatalf("get t%d/%d = %p, want %p", table, row, got, ref[k])
				}
			default:
				seen := make(map[*int]bool)
				tb.Clear(func(v *int) {
					if seen[v] {
						t.Fatalf("clear visited %p twice", v)
					}
					seen[v] = true
				})
				if len(seen) != len(ref) {
					t.Fatalf("clear visited %d values, want %d", len(seen), len(ref))
				}
				for _, v := range ref {
					if !seen[v] {
						t.Fatalf("clear missed %p", v)
					}
				}
				clear(ref)
			}
			if tb.Len() != len(ref) {
				t.Fatalf("len %d, want %d", tb.Len(), len(ref))
			}
			if len(tb.slots) > 0 {
				check(t, &tb)
			}
		}
		for k, v := range ref {
			if got := tb.Get(k.table, k.row); got != v {
				t.Fatalf("final get t%d/%d = %p, want %p", k.table, k.row, got, v)
			}
		}
	})
}

func TestZeroTable(t *testing.T) {
	var tb Table[int]
	if tb.Get(1, 2) != nil || tb.Delete(1, 2) != nil || tb.Len() != 0 {
		t.Fatal("zero table is not empty")
	}
	tb.Clear(func(*int) { t.Fatal("clear of an empty table called f") })
	if tb.slots != nil {
		t.Fatal("reads of a zero table allocated")
	}
}

func TestPutNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Put of nil did not panic")
		}
	}()
	var tb Table[int]
	tb.Put(0, 0, nil)
}

// TestSteadyStateAllocatesNothing: once grown, puts and deletes reuse the
// slots.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	var tb Table[int]
	v := new(int)
	cycle := func() {
		for r := uint64(0); r < 400; r++ {
			tb.Put(7, r, v)
		}
		for r := uint64(0); r < 400; r++ {
			tb.Delete(7, r)
		}
	}
	cycle()
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("%v allocations per cycle, want 0", n)
	}
}

// TestWrapThenLoseFirst pins the layout the wrap-lose-first seed is meant
// to reach: a chain homed at the last slot wraps to slots 0 and 1, and
// deleting its first member shifts every later member back one slot,
// across the end of the array.
func TestWrapThenLoseFirst(t *testing.T) {
	last := homedAt(1, minSlots-1, minSlots, 3)
	first := homedAt(1, 0, minSlots, 1)[0]
	var tb Table[int]
	v := []*int{new(int), new(int), new(int), new(int)}
	for i, r := range append(last, first) {
		tb.Put(1, r, v[i])
	}
	at := func(i int) *int { return tb.slots[i].v }
	if at(minSlots-1) != v[0] || at(0) != v[1] || at(1) != v[2] || at(2) != v[3] {
		t.Fatal("chain did not wrap as planned")
	}
	tb.Delete(1, last[0])
	if at(minSlots-1) != v[1] || at(0) != v[2] || at(1) != v[3] || at(2) != nil {
		t.Fatal("delete did not shift the wrapped chain back")
	}
	check(t, &tb)
}
