package index

import (
	"encoding/binary"
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
