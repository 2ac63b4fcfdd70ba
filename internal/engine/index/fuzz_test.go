package index

import (
	"encoding/binary"
	"errors"
	"testing"
)

// FuzzBTreeOps drives the tree with an arbitrary operation tape checked
// against a map reference. Each 9-byte chunk is one operation: 1 opcode
// byte + 8 key bytes. Keys fold into 4096 values: enough for a tape to
// grow the tree to three levels (more than 64 leaves) and drain it again.
func FuzzBTreeOps(f *testing.F) {
	tape := make([]byte, 0, 9*64)
	for i := 0; i < 64; i++ {
		op := byte(i % 3)
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], uint64(i*37%100))
		tape = append(tape, op)
		tape = append(tape, k[:]...)
	}
	f.Add(tape)
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New()
		ref := make(map[uint64]uint64)
		for len(data) >= 9 {
			op := data[0]
			key := binary.LittleEndian.Uint64(data[1:9]) % 4096
			data = data[9:]
			switch op % 3 {
			case 0:
				tr.Set(key, key*3)
				ref[key] = key * 3
			case 1:
				err := tr.Delete(key)
				_, existed := ref[key]
				if existed != (err == nil) {
					t.Fatalf("delete(%d) err=%v existed=%v", key, err, existed)
				}
				delete(ref, key)
			case 2:
				v, ok := tr.Get(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					t.Fatalf("get(%d) = %d,%v want %d,%v", key, v, ok, rv, rok)
				}
			}
		}
		if tr.Len() != len(ref) {
			t.Fatalf("len %d != ref %d", tr.Len(), len(ref))
		}
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		// The read paths descend without Validate's checks: they must
		// cope with whatever shape the tape left, an emptied tree included.
		k, _, ok := tr.Min(0)
		if _, _, okMax := tr.Max(^uint64(0)); ok != (len(ref) > 0) || okMax != ok {
			t.Fatalf("min/max found=%v/%v with %d keys", ok, okMax, len(ref))
		}
		if _, inRef := ref[k]; ok && !inRef {
			t.Fatalf("min returned %d, not a live key", k)
		}
	})
}

// denseKey folds 8 tape bytes into a FuzzDenseOps key. With bit 63 set it
// is a key at or above DenseLimit, which Set must refuse. Otherwise bits
// 16-17 pick one of four tables (the last one below DenseLimit among them,
// so a tape grows the directory several times), bits 8-9 one of three
// pages of that table, and the low 6 bits a slot.
func denseKey(raw uint64) uint64 {
	if raw>>63 != 0 {
		return DenseLimit + raw&0xffff
	}
	tables := [4]uint64{0, 1, 3, DenseLimit>>(pageBits+tableBits) - 1}
	pages := [3]uint64{0, 1, tableMask}
	return tables[raw>>16&3]<<(pageBits+tableBits) | pages[(raw>>8&3)%3]<<pageBits | raw&63
}

// FuzzDenseOps drives a Dense with the FuzzBTreeOps tape layout (1 opcode
// byte + 8 key bytes per operation, keys folded by denseKey) against a map
// reference. A set's value is the key xor the opcode byte over 3, so
// value 0 occurs and must read back as present.
func FuzzDenseOps(f *testing.F) {
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDense()
		ref := make(map[uint64]uint64)
		for len(data) >= 9 {
			op := data[0]
			key := denseKey(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			switch op % 3 {
			case opSet:
				val := key ^ uint64(op/3)
				err := d.Set(key, val)
				if key >= DenseLimit {
					if !errors.Is(err, ErrKeyRange) {
						t.Fatalf("set(%#x) = %v, want ErrKeyRange", key, err)
					}
					continue
				}
				if err != nil {
					t.Fatalf("set(%#x): %v", key, err)
				}
				ref[key] = val
			case opDelete:
				err := d.Delete(key)
				_, existed := ref[key]
				if existed != (err == nil) {
					t.Fatalf("delete(%#x) err=%v existed=%v", key, err, existed)
				}
				delete(ref, key)
			case opGet:
				v, ok := d.Get(key)
				rv, rok := ref[key]
				if ok != rok || (ok && v != rv) {
					t.Fatalf("get(%#x) = %d,%v want %d,%v", key, v, ok, rv, rok)
				}
			}
		}
		if d.Len() != len(ref) {
			t.Fatalf("len %d != ref %d", d.Len(), len(ref))
		}
		for k, rv := range ref {
			if v, ok := d.Get(k); !ok || v != rv {
				t.Fatalf("final get(%#x) = %d,%v want %d", k, v, ok, rv)
			}
		}
	})
}
