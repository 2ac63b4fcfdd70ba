package mvcc

import (
	"errors"
	"testing"
)

// Store-level SSI tests: dangerous-structure aborts, SIREAD mark
// lifetime across commit, the prepared latch, and rec-pool hygiene. The
// heap is the same plain-map model the SI tests use.

var (
	kx = Key{Table: 1, Row: 11}
	ky = Key{Table: 1, Row: 12}
	kz = Key{Table: 2, Row: 13}
)

// liveMarks counts the SIREAD marks whose transaction life has not ended.
func liveMarks(s *Store) int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for _, m := range sh.marks {
			if m.rec.gen.Load() == m.gen {
				n++
			}
		}
		sh.mu.Unlock()
	}
	return n
}

// seedSSI commits initial images for kx and ky and returns the store.
func seedSSI(t *testing.T, heap map[Key][]byte) (*Store, *RetireSet) {
	t.Helper()
	s := NewSerializableStore()
	var ret RetireSet
	var t0 Txn
	s.Begin(&t0, &ret)
	for _, k := range []Key{kx, ky} {
		if err := s.Write(&t0, k, nil); err != nil {
			t.Fatal(err)
		}
	}
	heap[kx] = rec(1)
	heap[ky] = rec(2)
	if err := s.PreCommit(&t0); err != nil {
		t.Fatal(err)
	}
	if s.Commit(&t0, &ret) == 0 {
		t.Fatal("seed commit got ts 0")
	}
	return s, &ret
}

// TestSSIWriteSkewOneVictim is the canonical two-transaction skew at
// store level: each reads the row the other writes. The second crossing
// write must fail with ErrSSI — and ONLY that transaction dies: because
// the victim's edges are never installed, the first transaction stays
// clean and commits.
func TestSSIWriteSkewOneVictim(t *testing.T) {
	heap := map[Key][]byte{}
	s, ret := seedSSI(t, heap)

	var t1, t2 Txn
	s.Begin(&t1, nil)
	s.Begin(&t2, nil)
	if v, ok := readAt(s, &t1, ky, heap); !ok || v != 2 {
		t.Fatalf("t1 read ky = (%d,%v), want (2,true)", v, ok)
	}
	if v, ok := readAt(s, &t2, kx, heap); !ok || v != 1 {
		t.Fatalf("t2 read kx = (%d,%v), want (1,true)", v, ok)
	}
	if err := s.Write(&t1, kx, heap[kx]); err != nil {
		t.Fatalf("t1 write kx: %v", err)
	}
	heap[kx] = rec(10)
	err := s.Write(&t2, ky, heap[ky])
	if !errors.Is(err, ErrSSI) {
		t.Fatalf("t2 crossing write: %v, want ErrSSI", err)
	}
	if n := s.SSIAborts(); n != 1 {
		t.Fatalf("ssi aborts = %d, want 1", n)
	}
	s.Abort(&t2)

	if err := s.PreCommit(&t1); err != nil {
		t.Fatalf("t1 must survive the skew (victim's edges are void): %v", err)
	}
	if s.Commit(&t1, ret) == 0 {
		t.Fatal("t1 commit got ts 0")
	}

	// The retry with a fresh snapshot is serial after t1: no concurrent
	// reader, no edges, clean commit — abort-and-retry cannot livelock.
	var t2r Txn
	s.Begin(&t2r, ret)
	if v, ok := readAt(s, &t2r, kx, heap); !ok || v != 10 {
		t.Fatalf("t2 retry read kx = (%d,%v), want (10,true)", v, ok)
	}
	if err := s.Write(&t2r, ky, heap[ky]); err != nil {
		t.Fatalf("t2 retry write ky: %v", err)
	}
	heap[ky] = rec(20)
	if err := s.PreCommit(&t2r); err != nil {
		t.Fatalf("t2 retry precommit: %v", err)
	}
	if s.Commit(&t2r, ret) == 0 {
		t.Fatal("t2 retry commit got ts 0")
	}
}

// TestSSIMarkSurvivesCommit pins the SIREAD lifetime rule: a committed
// reader's mark (and its conflict flags) must stay live until the
// watermark passes its commit — an active transaction that began before
// the reader committed can still close a cycle through it. With r
// committed, w's read below r's write gives w an out-edge, and w's
// write over r's mark would give it an in-edge: w is the pivot and must
// die, no matter how many other transactions begin and prune meanwhile.
func TestSSIMarkSurvivesCommit(t *testing.T) {
	heap := map[Key][]byte{}
	s, ret := seedSSI(t, heap)

	var w, r Txn
	s.Begin(&w, nil) // concurrent with r; its snapshot holds the watermark
	s.Begin(&r, nil)
	if v, ok := readAt(s, &r, kx, heap); !ok || v != 1 {
		t.Fatalf("r read kx = (%d,%v), want (1,true)", v, ok)
	}
	if err := s.Write(&r, ky, heap[ky]); err != nil {
		t.Fatal(err)
	}
	heap[ky] = rec(20)
	if err := s.PreCommit(&r); err != nil {
		t.Fatal(err)
	}
	if s.Commit(&r, ret) == 0 {
		t.Fatal("r commit got ts 0")
	}

	// Begin/abort churn: the rec reap must NOT release r's record while
	// w's older snapshot is still active (premature reclaim would erase
	// both the mark on kx and the flags the next edge needs).
	for i := 0; i < 5; i++ {
		var g Txn
		s.Begin(&g, ret)
		s.Abort(&g)
	}

	// w reads ky below r's committed image: out-edge w → r.
	if v, ok := readAt(s, &w, ky, heap); !ok || v != 2 {
		t.Fatalf("w read ky = (%d,%v), want the pre-r image (2,true)", v, ok)
	}
	// w overwrites kx, which r read: in-edge w ← ... no — r → w, making
	// w in+out: the pivot of a genuine 2-cycle (r must come both before
	// and after w). The write must fail.
	if err := s.Write(&w, kx, heap[kx]); !errors.Is(err, ErrSSI) {
		t.Fatalf("w write kx over committed r's mark: %v, want ErrSSI", err)
	}
	s.Abort(&w)

	// Once w is gone the watermark passes r's commit; the next begin
	// reaps r's rec and the marks go stale: a fresh writer sails through.
	var w2 Txn
	s.Begin(&w2, ret)
	if err := s.Write(&w2, kx, heap[kx]); err != nil {
		t.Fatalf("fresh write kx after drain: %v", err)
	}
	heap[kx] = rec(30)
	if err := s.PreCommit(&w2); err != nil {
		t.Fatal(err)
	}
	s.Commit(&w2, ret)
}

// TestSSIPivotDoomedAtPreCommit builds the three-transaction dangerous
// structure around a still-active pivot: r2 → p (r2 read below p's
// uncommitted write) and p → w3 (w3 overwrote p's read). The pivot is
// active when the second edge lands, so it is doomed in place and finds
// out at PreCommit; the two neighbors both survive.
func TestSSIPivotDoomedAtPreCommit(t *testing.T) {
	heap := map[Key][]byte{}
	s, ret := seedSSI(t, heap)

	var p, r2, w3 Txn
	s.Begin(&p, nil)
	s.Begin(&r2, nil)
	s.Begin(&w3, nil)

	if v, ok := readAt(s, &p, kx, heap); !ok || v != 1 {
		t.Fatalf("p read kx = (%d,%v)", v, ok)
	}
	if err := s.Write(&p, ky, heap[ky]); err != nil {
		t.Fatal(err)
	}
	heap[ky] = rec(20)

	// r2 reads ky below p's uncommitted image: r2 → p, p gains in.
	if v, ok := readAt(s, &r2, ky, heap); !ok || v != 2 {
		t.Fatalf("r2 read ky = (%d,%v), want (2,true)", v, ok)
	}
	// w3 overwrites kx, which p read: p → w3, p gains out = pivot.
	if err := s.Write(&w3, kx, heap[kx]); err != nil {
		t.Fatalf("w3 write kx: %v (the ACTIVE pivot should be doomed, not the actor)", err)
	}
	heap[kx] = rec(30)

	if err := s.PreCommit(&p); !errors.Is(err, ErrSSI) {
		t.Fatalf("pivot precommit: %v, want ErrSSI", err)
	}
	heap[ky] = rec(2) // engine would undo p's heap write
	s.Abort(&p)

	if err := s.PreCommit(&w3); err != nil {
		t.Fatalf("w3 precommit: %v", err)
	}
	s.Commit(&w3, ret)
	if err := s.PreCommit(&r2); err != nil {
		t.Fatalf("r2 precommit: %v", err)
	}
	s.Commit(&r2, ret)
}

// TestSSIPreparedPivotUnabortable: once a transaction passes PreCommit
// (the 2PC prepare vote), it is latched — a later edge that makes it a
// pivot must abort the ACTING transaction instead, because the prepared
// branch has promised its coordinator it can commit.
func TestSSIPreparedPivotUnabortable(t *testing.T) {
	heap := map[Key][]byte{}
	s, ret := seedSSI(t, heap)

	var p, r2, w3 Txn
	s.Begin(&p, nil)
	s.Begin(&r2, nil)
	s.Begin(&w3, nil)

	if v, ok := readAt(s, &p, kx, heap); !ok || v != 1 {
		t.Fatalf("p read kx = (%d,%v)", v, ok)
	}
	if err := s.Write(&p, ky, heap[ky]); err != nil {
		t.Fatal(err)
	}
	heap[ky] = rec(20)
	if err := s.PreCommit(&p); err != nil {
		t.Fatalf("prepare p: %v", err)
	}

	// r2 → p lands after the latch: allowed, p only gains in.
	if v, ok := readAt(s, &r2, ky, heap); !ok || v != 2 {
		t.Fatalf("r2 read ky = (%d,%v)", v, ok)
	}
	// w3's overwrite of p's read would make latched p the pivot: w3 must
	// yield instead.
	if err := s.Write(&w3, kx, heap[kx]); !errors.Is(err, ErrSSI) {
		t.Fatalf("w3 write kx against prepared pivot: %v, want ErrSSI", err)
	}
	s.Abort(&w3)

	if s.Commit(&p, ret) == 0 {
		t.Fatal("prepared p must commit")
	}
	s.Commit(&r2, ret)
}

// TestSSIAbsentReadMark: a snapshot read of a key with NO chain and no
// heap row still leaves a mark (in its shard's mark list), so a
// concurrent INSERT of that key raises the antidependency — the "saw
// nothing" read is as protected as any other. The refused insert leaves
// no chain behind.
func TestSSIAbsentReadMark(t *testing.T) {
	heap := map[Key][]byte{}
	s, ret := seedSSI(t, heap)

	var t1, t2 Txn
	s.Begin(&t1, nil)
	s.Begin(&t2, nil)
	if _, ok := readAt(s, &t1, kz, heap); ok {
		t.Fatal("kz should be absent")
	}
	if err := s.Write(&t1, kx, heap[kx]); err != nil {
		t.Fatal(err)
	}
	heap[kx] = rec(10)
	// t2 read kx below t1's write (out-edge), then inserts the key t1
	// saw absent (would add the in-edge): t2 is the pivot.
	if v, ok := readAt(s, &t2, kx, heap); !ok || v != 1 {
		t.Fatalf("t2 read kx = (%d,%v), want (1,true)", v, ok)
	}
	if err := s.Write(&t2, kz, nil); !errors.Is(err, ErrSSI) {
		t.Fatalf("t2 insert of t1's absent read: %v, want ErrSSI", err)
	}
	if s.shardOf(kz).get(kz) != nil {
		t.Fatal("the refused insert left a chain for kz")
	}
	s.Abort(&t2)
	if err := s.PreCommit(&t1); err != nil {
		t.Fatal(err)
	}
	s.Commit(&t1, ret)
}

// TestSSIQuiesceReclaimsEverything runs sequential read+write
// transactions and checks the pools quiesce: the committed-rec queue
// drains to its compaction floor, no chains leak once the retire ring
// is pruned, and read-only commits still report ts 0 to the WAL-skip
// path while drawing the clock tick SSI needs internally.
func TestSSIQuiesceReclaimsEverything(t *testing.T) {
	heap := map[Key][]byte{}
	s, ret := seedSSI(t, heap)

	clock0 := s.Clock()
	for i := 0; i < 100; i++ {
		var tx Txn
		s.Begin(&tx, ret)
		if _, ok := readAt(s, &tx, kx, heap); !ok {
			t.Fatal("kx missing")
		}
		if err := s.Write(&tx, ky, heap[ky]); err != nil {
			t.Fatal(err)
		}
		heap[ky] = rec(byte(i))
		if err := s.PreCommit(&tx); err != nil {
			t.Fatal(err)
		}
		if s.Commit(&tx, ret) == 0 {
			t.Fatal("writing commit got ts 0")
		}
	}
	// A read-only transaction with marks: ts 0 to the caller, but the
	// clock must tick (its endTS orders the mark lifetime).
	var ro Txn
	s.Begin(&ro, ret)
	if _, ok := readAt(s, &ro, kx, heap); !ok {
		t.Fatal("kx missing")
	}
	c := s.Clock()
	if ts := s.Commit(&ro, ret); ts != 0 {
		t.Fatalf("read-only commit got ts %d", ts)
	}
	if s.Clock() != c+1 {
		t.Fatalf("read-only SSI commit with marks must tick the clock (%d -> %d)", c, s.Clock())
	}

	// Drain: two begin/abort cycles reap recs and prune the ring.
	for i := 0; i < 2; i++ {
		var fin Txn
		s.Begin(&fin, ret)
		s.Abort(&fin)
	}
	if n := ret.Len(); n != 0 {
		t.Fatalf("retire ring holds %d entries after drain", n)
	}
	if n := s.Chains(); n != 0 {
		t.Fatalf("%d chains leaked after drain", n)
	}
	if n := liveMarks(s); n != 0 {
		t.Fatalf("%d SIREAD marks still live after drain", n)
	}
	s.regMu.Lock()
	pending := len(s.commRecs) - s.commHead
	s.regMu.Unlock()
	if pending != 0 {
		t.Fatalf("%d committed recs never reaped", pending)
	}
	if s.Clock() <= clock0 {
		t.Fatal("clock did not advance")
	}
	if n := s.SSIAborts(); n != 0 {
		t.Fatalf("sequential schedule produced %d ssi aborts, want 0", n)
	}
}
