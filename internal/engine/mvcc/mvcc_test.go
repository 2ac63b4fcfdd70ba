package mvcc

import (
	"bytes"
	"errors"
	"testing"
)

// The tests model the heap as a plain map: the store never touches the
// heap itself, it only decides which image a snapshot sees. rec/readAt
// keep that glue in one place.

func rec(v byte) []byte { return []byte{v} }

// readAt performs the engine's two-step read protocol: heap first, then
// Read resolves visibility, possibly overwriting the buffer.
func readAt(s *Store, t *Txn, k Key, heap map[Key][]byte) (byte, bool) {
	var buf [1]byte
	img, live := heap[k]
	if live {
		copy(buf[:], img)
	}
	if !s.Read(t, k, live, buf[:]) {
		return 0, false
	}
	return buf[0], true
}

func TestVisibilityAcrossCommit(t *testing.T) {
	s := NewStore()
	heap := map[Key][]byte{}
	k := Key{Table: 1, Row: 7}
	var ret RetireSet

	// Seed a committed row the way the engine would: insert + commit.
	var t0 Txn
	s.Begin(&t0, &ret)
	if err := s.Write(&t0, k, nil); err != nil {
		t.Fatal(err)
	}
	heap[k] = rec(10)
	ts0 := s.Commit(&t0, &ret)
	if ts0 == 0 {
		t.Fatal("writing commit got timestamp 0")
	}

	// Reader snapshots before the update, writer updates and commits.
	var rd, wr Txn
	s.Begin(&rd, nil)
	s.Begin(&wr, nil)
	if err := s.Write(&wr, k, heap[k]); err != nil {
		t.Fatal(err)
	}
	heap[k] = rec(20)

	// Uncommitted: the reader must still see the old image.
	if v, ok := readAt(s, &rd, k, heap); !ok || v != 10 {
		t.Fatalf("reader saw (%d,%v) before commit, want (10,true)", v, ok)
	}
	// The writer sees its own heap image.
	if v, ok := readAt(s, &wr, k, heap); !ok || v != 20 {
		t.Fatalf("writer saw (%d,%v) of own write, want (20,true)", v, ok)
	}

	ts1 := s.Commit(&wr, &ret)
	if ts1 <= ts0 {
		t.Fatalf("commit timestamps not monotonic: %d then %d", ts0, ts1)
	}
	// Snapshot stability: the committed update stays invisible to rd.
	if v, ok := readAt(s, &rd, k, heap); !ok || v != 10 {
		t.Fatalf("reader saw (%d,%v) after commit, want (10,true)", v, ok)
	}
	s.Abort(&rd) // read-only end

	// A fresh snapshot sees the new image.
	var t2 Txn
	s.Begin(&t2, nil)
	if v, ok := readAt(s, &t2, k, heap); !ok || v != 20 {
		t.Fatalf("fresh snapshot saw (%d,%v), want (20,true)", v, ok)
	}
	s.Abort(&t2)
}

func TestInsertInvisibleToOlderSnapshot(t *testing.T) {
	s := NewStore()
	heap := map[Key][]byte{}
	k := Key{Table: 2, Row: 3}
	var ret RetireSet

	var rd, ins Txn
	s.Begin(&rd, nil)
	s.Begin(&ins, nil)
	if err := s.Write(&ins, k, nil); err != nil {
		t.Fatal(err)
	}
	heap[k] = rec(1)
	s.Commit(&ins, &ret)

	if _, ok := readAt(s, &rd, k, heap); ok {
		t.Fatal("row inserted after the snapshot is visible")
	}
	s.Abort(&rd)
	var t2 Txn
	s.Begin(&t2, nil)
	if v, ok := readAt(s, &t2, k, heap); !ok || v != 1 {
		t.Fatalf("fresh snapshot saw (%d,%v), want (1,true)", v, ok)
	}
	s.Abort(&t2)
}

func TestFirstCommitterWins(t *testing.T) {
	s := NewStore()
	heap := map[Key][]byte{k0: rec(5)}
	var ret RetireSet

	var a, b Txn
	s.Begin(&a, nil)
	s.Begin(&b, nil)
	if err := s.Write(&a, k0, heap[k0]); err != nil {
		t.Fatal(err)
	}
	heap[k0] = rec(6)
	s.Commit(&a, &ret)

	// b's snapshot predates a's commit: its write must lose.
	err := s.Write(&b, k0, heap[k0])
	if !errors.Is(err, ErrConflict) {
		t.Fatalf("stale write returned %v, want ErrConflict", err)
	}
	if s.Conflicts() != 1 {
		t.Fatalf("conflict counter = %d, want 1", s.Conflicts())
	}
	s.Abort(&b)

	// Retried with a fresh snapshot it succeeds.
	var b2 Txn
	s.Begin(&b2, nil)
	if err := s.Write(&b2, k0, heap[k0]); err != nil {
		t.Fatal(err)
	}
	heap[k0] = rec(7)
	s.Commit(&b2, &ret)
}

var k0 = Key{Table: 1, Row: 1}

func TestAbortRestoresChainAndFreesCreated(t *testing.T) {
	s := NewStore()
	heap := map[Key][]byte{k0: rec(5)}

	var a Txn
	s.Begin(&a, nil)
	if err := s.Write(&a, k0, heap[k0]); err != nil {
		t.Fatal(err)
	}
	heap[k0] = rec(9)
	kNew := Key{Table: 1, Row: 2}
	if err := s.Write(&a, kNew, nil); err != nil {
		t.Fatal(err)
	}
	heap[kNew] = rec(1)
	if got := a.Writes(); got != 2 {
		t.Fatalf("Writes() = %d, want 2", got)
	}

	// Engine order: heap undo first, then Abort.
	heap[k0] = rec(5)
	delete(heap, kNew)
	s.Abort(&a)

	// The chain created by the aborted insert must be gone; k0's chain was
	// created by the aborted update (no prior committed version) so it is
	// freed too.
	if n := s.Chains(); n != 0 {
		t.Fatalf("chains after abort = %d, want 0", n)
	}
	var t2 Txn
	s.Begin(&t2, nil)
	if v, ok := readAt(s, &t2, k0, heap); !ok || v != 5 {
		t.Fatalf("post-abort read = (%d,%v), want (5,true)", v, ok)
	}
	if _, ok := readAt(s, &t2, kNew, heap); ok {
		t.Fatal("aborted insert is visible")
	}
	s.Abort(&t2)
}

func TestWatermarkPruning(t *testing.T) {
	s := NewStore()
	heap := map[Key][]byte{k0: rec(1)}
	var ret RetireSet

	// An old reader pins the watermark below the coming commit.
	var rd Txn
	s.Begin(&rd, nil)

	var w Txn
	s.Begin(&w, nil)
	if err := s.Write(&w, k0, heap[k0]); err != nil {
		t.Fatal(err)
	}
	heap[k0] = rec(2)
	s.Commit(&w, &ret)
	if ret.Len() != 1 {
		t.Fatalf("retire ring holds %d entries, want 1", ret.Len())
	}

	// While rd lives, Begin must NOT free the chain rd still needs.
	var t2 Txn
	s.Begin(&t2, &ret)
	if n := s.Chains(); n != 1 {
		t.Fatalf("chain pruned under a live old snapshot (chains=%d)", n)
	}
	if v, ok := readAt(s, &rd, k0, heap); !ok || v != 1 {
		t.Fatalf("old snapshot read (%d,%v), want (1,true)", v, ok)
	}
	s.Abort(&t2)
	s.Abort(&rd)

	// With the old snapshot gone the next Begin retires the chain.
	var t3 Txn
	s.Begin(&t3, &ret)
	if n := s.Chains(); n != 0 {
		t.Fatalf("chains after watermark passed = %d, want 0", n)
	}
	if ret.Len() != 0 {
		t.Fatalf("retire ring holds %d entries after prune, want 0", ret.Len())
	}
	// Heap-only rows resolve as-is.
	if v, ok := readAt(s, &t3, k0, heap); !ok || v != 2 {
		t.Fatalf("post-prune read (%d,%v), want (2,true)", v, ok)
	}
	s.Abort(&t3)
}

func TestChainRecycling(t *testing.T) {
	s := NewStore()
	heap := map[Key][]byte{k0: rec(0)}
	var ret RetireSet
	// Repeated write/commit/prune cycles must recycle the same chain
	// through the shard free list, not grow the map.
	for i := 0; i < 100; i++ {
		var w Txn
		s.Begin(&w, &ret)
		if err := s.Write(&w, k0, heap[k0]); err != nil {
			t.Fatal(err)
		}
		heap[k0] = rec(byte(i))
		s.Commit(&w, &ret)
	}
	var fin Txn
	s.Begin(&fin, &ret)
	if n := s.Chains(); n != 0 {
		t.Fatalf("steady-state churn leaked %d chains", n)
	}
	if v, ok := readAt(s, &fin, k0, heap); !ok || v != 99 {
		t.Fatalf("final read (%d,%v), want (99,true)", v, ok)
	}
	s.Abort(&fin)
}

func TestResetKeepsClock(t *testing.T) {
	s := NewStore()
	heap := map[Key][]byte{}
	var ret RetireSet
	var w Txn
	s.Begin(&w, nil)
	if err := s.Write(&w, k0, nil); err != nil {
		t.Fatal(err)
	}
	heap[k0] = rec(1)
	s.Commit(&w, &ret)
	clk := s.Clock()
	if clk == 0 {
		t.Fatal("clock did not advance")
	}
	s.Reset()
	if s.Chains() != 0 {
		t.Fatal("Reset left chains behind")
	}
	if s.Clock() != clk {
		t.Fatalf("Reset moved the clock: %d -> %d", clk, s.Clock())
	}
}

func TestReadCopiesVersionBytes(t *testing.T) {
	s := NewStore()
	k := Key{Table: 4, Row: 4}
	heap := map[Key][]byte{k: []byte{1, 2, 3, 4}}

	var rd, w Txn
	s.Begin(&rd, nil)
	s.Begin(&w, nil)
	if err := s.Write(&w, k, heap[k]); err != nil {
		t.Fatal(err)
	}
	heap[k] = []byte{9, 9, 9, 9}
	var ret RetireSet
	s.Commit(&w, &ret)

	buf := make([]byte, 4)
	copy(buf, heap[k])
	if !s.Read(&rd, k, true, buf) {
		t.Fatal("row invisible to old snapshot")
	}
	if !bytes.Equal(buf, []byte{1, 2, 3, 4}) {
		t.Fatalf("old version bytes = %v, want [1 2 3 4]", buf)
	}
	s.Abort(&rd)
}

// TestSameRowInTwoTables: chains are kept per table, so a row key that
// exists in two tables names two independent chains, even in one shard. An
// update of one must not show through the other, under plain SI or SSI,
// and both chains must retire once the watermark passes.
func TestSameRowInTwoTables(t *testing.T) {
	for _, s := range []*Store{NewStore(), NewSerializableStore()} {
		// Tables equal in their low byte share every row's shard.
		kA, kB := Key{Table: 1, Row: 5}, Key{Table: 257, Row: 5}
		if s.shardOf(kA) != s.shardOf(kB) {
			t.Fatal("the two keys no longer share a shard; pick another pair")
		}
		heap := map[Key][]byte{kA: rec(1), kB: rec(2)}
		var ret RetireSet

		var rd, w Txn
		s.Begin(&rd, &ret)
		s.Begin(&w, &ret)
		if err := s.Write(&w, kA, heap[kA]); err != nil {
			t.Fatal(err)
		}
		heap[kA] = rec(3)
		s.Commit(&w, &ret)

		if v, ok := readAt(s, &rd, kA, heap); !ok || v != 1 {
			t.Fatalf("ssi=%v: old snapshot read %v as (%d,%v), want (1,true)", s.SSI(), kA, v, ok)
		}
		if v, ok := readAt(s, &rd, kB, heap); !ok || v != 2 {
			t.Fatalf("ssi=%v: old snapshot read %v as (%d,%v), want (2,true)", s.SSI(), kB, v, ok)
		}
		s.Commit(&rd, &ret)

		var fresh Txn
		s.Begin(&fresh, &ret)
		if v, ok := readAt(s, &fresh, kA, heap); !ok || v != 3 {
			t.Fatalf("ssi=%v: fresh snapshot read %v as (%d,%v), want (3,true)", s.SSI(), kA, v, ok)
		}
		if v, ok := readAt(s, &fresh, kB, heap); !ok || v != 2 {
			t.Fatalf("ssi=%v: fresh snapshot read %v as (%d,%v), want (2,true)", s.SSI(), kB, v, ok)
		}
		s.Commit(&fresh, &ret)

		var last Txn
		s.Begin(&last, &ret)
		s.Commit(&last, &ret)
		var drain Txn
		s.Begin(&drain, &ret)
		if n := s.Chains(); n != 0 {
			t.Fatalf("ssi=%v: %d chains left after the watermark passed", s.SSI(), n)
		}
		s.Commit(&drain, &ret)
	}
}

// TestReadCopiesPrefixOfOlderVersion: a snapshot reader that reads only a
// row's first 12 bytes — Stock-Level's S_I_ID, S_W_ID and S_QUANTITY of a
// 306-byte stock row — gets the quantity its snapshot saw after a writer has
// committed a new one, and Read writes nothing past len(buf): not into spare
// capacity, and without needing any when there is none.
func TestReadCopiesPrefixOfOlderVersion(t *testing.T) {
	const rowLen, n = 306, 12
	stock := func(qty byte) []byte {
		img := bytes.Repeat([]byte{0xaa}, rowLen)
		img[8] = qty // S_QUANTITY's low byte
		return img
	}
	s := NewStore()
	k := Key{Table: 3, Row: 42}
	var ret RetireSet
	var t0 Txn
	s.Begin(&t0, &ret)
	if err := s.Write(&t0, k, nil); err != nil {
		t.Fatal(err)
	}
	heap := stock(50)
	s.Commit(&t0, &ret)

	var rd, wr Txn
	s.Begin(&rd, nil)
	s.Begin(&wr, nil)
	if err := s.Write(&wr, k, heap); err != nil {
		t.Fatal(err)
	}
	heap = stock(7)
	s.Commit(&wr, &ret)

	roomy := bytes.Repeat([]byte{0xee}, rowLen)
	tight := make([]byte, n)
	for _, buf := range [][]byte{roomy[:n], tight} {
		copy(buf, heap) // the heap read: the new image's prefix
		if !s.Read(&rd, k, true, buf) {
			t.Fatal("row invisible to a snapshot that predates its update")
		}
		if buf[8] != 50 {
			t.Errorf("snapshot read quantity %d, want the old 50", buf[8])
		}
	}
	if bytes.Count(roomy[n:], []byte{0xee}) != rowLen-n {
		t.Error("Read wrote past len(buf) into its spare capacity")
	}
	s.Abort(&rd)
}
