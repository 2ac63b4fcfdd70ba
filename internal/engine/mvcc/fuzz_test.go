package mvcc

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzVisibility drives the store through an arbitrary schedule of
// begin/read/write/delete/commit/abort operations over a tiny key space
// and checks every read against a map-based oracle that replays the SAME
// schedule with brute force: the full committed history per key, visible
// version = newest commit at or below the reader's snapshot.
//
// The tape interpreter models the engine around the store faithfully —
// a heap holding the newest image, exclusive row locks (a write against a
// locked row is skipped, since the real engine would block), undo of heap
// images on abort — so the oracle disagreeing with Read means a store
// bug, not a harness artifact.
//
// Every tape runs twice: once against the plain SI store and once
// against the SSI store. SSI must preserve visibility EXACTLY — marks,
// edges, and pivot aborts change which transactions survive, never what
// a surviving snapshot sees — so the same oracle applies, with ErrSSI
// (on write or at the modeled PreCommit) treated as one more abort
// path. This is the fuzzer's check on the read-mark/conflict-flag
// lifecycle: premature mark reclaim, a leaked chain or a mark that never
// goes stale shows up as an oracle mismatch or a failed drain.

// Tape encoding: 4 bytes per op.
//
//	byte 0: opcode % 6 (begin, read, write, delete, commit, abort)
//	byte 1: transaction slot % numSlots
//	byte 2: key % numKeys
//	byte 3: value written (write); prefix cut (read: the read copies the
//	        image's first fuzzImgLen - b%fuzzImgLen bytes, so 0 reads it all)
const (
	fopBegin = iota
	fopRead
	fopWrite
	fopDelete
	fopCommit
	fopAbort
	numFops
)

const (
	fuzzSlots  = 4
	fuzzKeys   = 4
	fuzzImgLen = 4
)

// fuzzImage is the row image a write of val leaves: every byte depends on
// val, so a read that copies the wrong version, or the right one short,
// shows in any prefix.
func fuzzImage(val byte) []byte {
	return []byte{val, val ^ 0x5a, val + 1, ^val}
}

// readPrefix performs the engine's projected read of k's first n bytes —
// the heap image's prefix, then Read — into a buffer with spare capacity,
// and fails if Read wrote past len(buf).
func readPrefix(t *testing.T, s *Store, tx *Txn, k Key, heap map[Key][]byte, n int) ([]byte, bool) {
	const sentinel = 0xee
	backing := bytes.Repeat([]byte{sentinel}, fuzzImgLen+2)
	img, live := heap[k]
	if live {
		copy(backing[:n], img)
	}
	got := s.Read(tx, k, live, backing[:n])
	if bytes.Count(backing[n:], []byte{sentinel}) != len(backing)-n {
		t.Fatalf("read of %d bytes of key %v wrote past len(buf): %x", n, k, backing)
	}
	return backing[:n], got
}

// fversion is one committed version in the oracle's history.
type fversion struct {
	ts     uint64
	val    byte
	absent bool
}

// fslot is one modeled transaction slot.
type fslot struct {
	active bool
	txn    Txn
	ret    RetireSet
	snap   uint64
	// writes/befores model the write set and the undo list: key -> new
	// value, key -> heap image at first write (nil slice = was absent).
	writes  map[Key]byte
	deletes map[Key]bool
	befores map[Key][]byte
}

func fuzzKey(i byte) Key { return Key{Table: uint32(i % 2), Row: uint64(i)} }

// oracleVisible returns the value visible at snapshot snap per the
// brute-force history model.
func oracleVisible(hist []fversion, snap uint64) (byte, bool) {
	for i := len(hist) - 1; i >= 0; i-- {
		if hist[i].ts <= snap {
			if hist[i].absent {
				return 0, false
			}
			return hist[i].val, true
		}
	}
	return 0, false
}

func runVisibilityTape(t *testing.T, tape []byte, ssi bool) {
	s := NewStore()
	if ssi {
		s = NewSerializableStore()
	}
	heap := map[Key][]byte{}
	hist := map[Key][]fversion{} // committed history, append order = ts order
	lockOwner := map[Key]int{}   // key -> slot holding the exclusive lock
	var slots [fuzzSlots]fslot

	endSlot := func(sl *fslot) {
		for k := range sl.befores {
			delete(lockOwner, k)
		}
		sl.writes = nil
		sl.deletes = nil
		sl.befores = nil
		sl.active = false
	}

	for len(tape) >= 4 {
		op, si, ki, val := tape[0]%numFops, int(tape[1]%fuzzSlots), tape[2]%fuzzKeys, tape[3]
		tape = tape[4:]
		sl := &slots[si]
		k := fuzzKey(ki)

		switch op {
		case fopBegin:
			if sl.active {
				continue
			}
			s.Begin(&sl.txn, &sl.ret)
			sl.active = true
			sl.snap = sl.txn.Snapshot()
			sl.writes = map[Key]byte{}
			sl.deletes = map[Key]bool{}
			sl.befores = map[Key][]byte{}

		case fopRead:
			if !sl.active {
				continue
			}
			n := fuzzImgLen - int(val)%fuzzImgLen
			buf, got := readPrefix(t, s, &sl.txn, k, heap, n)
			var want bool
			var wantVal byte
			if _, mine := sl.befores[k]; mine {
				// Read-your-own-writes: the heap image is the answer.
				want = !sl.deletes[k]
				wantVal = sl.writes[k]
			} else {
				wantVal, want = oracleVisible(hist[k], sl.snap)
			}
			if got != want {
				t.Fatalf("read slot=%d key=%v: live=%v, oracle=%v (snap=%d hist=%v)",
					si, k, got, want, sl.snap, hist[k])
			}
			if got && !bytes.Equal(buf, fuzzImage(wantVal)[:n]) {
				t.Fatalf("read slot=%d key=%v: %d-byte prefix %x, oracle's %x (snap=%d hist=%v)",
					si, k, n, buf, fuzzImage(wantVal)[:n], sl.snap, hist[k])
			}

		case fopWrite, fopDelete:
			if !sl.active {
				continue
			}
			if owner, held := lockOwner[k]; held && owner != si {
				continue // the real engine would block on the row lock
			}
			_, repeat := sl.befores[k]
			before := heap[k] // nil when absent
			err := s.Write(&sl.txn, k, before)
			if errors.Is(err, ErrSSI) {
				// Dangerous-structure abort: visibility-neutral, so the
				// oracle has nothing to say beyond the engine's abort
				// behavior (restore heap images, abort, free the slot).
				for wk, img := range sl.befores {
					if img == nil {
						delete(heap, wk)
					} else {
						heap[wk] = img
					}
				}
				s.Abort(&sl.txn)
				endSlot(sl)
				continue
			}
			if errors.Is(err, ErrConflict) {
				if repeat {
					t.Fatalf("write slot=%d key=%v: conflict on re-write of own row", si, k)
				}
				// The oracle must agree the row moved past our snapshot.
				if n := len(hist[k]); n == 0 || hist[k][n-1].ts <= sl.snap {
					t.Fatalf("write slot=%d key=%v: store conflicted, oracle sees none (snap=%d hist=%v)",
						si, k, sl.snap, hist[k])
				}
				// Engine behavior: the transaction aborts (heap untouched
				// for this key — mvWrite precedes the heap mutation).
				for wk, img := range sl.befores {
					if img == nil {
						delete(heap, wk)
					} else {
						heap[wk] = img
					}
				}
				s.Abort(&sl.txn)
				endSlot(sl)
				continue
			}
			if err != nil {
				t.Fatalf("write slot=%d key=%v: %v", si, k, err)
			}
			if n := len(hist[k]); !repeat && n > 0 && hist[k][n-1].ts > sl.snap {
				t.Fatalf("write slot=%d key=%v: store allowed stale write (snap=%d hist=%v)",
					si, k, sl.snap, hist[k])
			}
			if !repeat {
				lockOwner[k] = si
				if before == nil {
					sl.befores[k] = nil
				} else {
					sl.befores[k] = append([]byte(nil), before...)
				}
			}
			if op == fopDelete {
				delete(heap, k)
				sl.deletes[k] = true
				delete(sl.writes, k)
			} else {
				heap[k] = fuzzImage(val)
				sl.writes[k] = val
				delete(sl.deletes, k)
			}

		case fopCommit:
			if !sl.active {
				continue
			}
			if err := s.PreCommit(&sl.txn); err != nil {
				// The engine aborts a doomed transaction instead of
				// committing it (same undo path as an explicit abort).
				for wk, img := range sl.befores {
					if img == nil {
						delete(heap, wk)
					} else {
						heap[wk] = img
					}
				}
				s.Abort(&sl.txn)
				endSlot(sl)
				continue
			}
			ts := s.Commit(&sl.txn, &sl.ret)
			if len(sl.befores) == 0 {
				if ts != 0 {
					t.Fatalf("commit slot=%d: read-only commit got ts %d", si, ts)
				}
			} else {
				if ts == 0 {
					t.Fatalf("commit slot=%d: writing commit got ts 0", si)
				}
				for k := range sl.befores {
					hist[k] = append(hist[k], fversion{
						ts: ts, val: sl.writes[k], absent: sl.deletes[k],
					})
				}
			}
			endSlot(sl)

		case fopAbort:
			if !sl.active {
				continue
			}
			for wk, img := range sl.befores {
				if img == nil {
					delete(heap, wk)
				} else {
					heap[wk] = img
				}
			}
			s.Abort(&sl.txn)
			endSlot(sl)
		}
	}

	// Drain: abort every open transaction, then check the final state and
	// that pruning returns the store to zero chains.
	for si := range slots {
		sl := &slots[si]
		if !sl.active {
			continue
		}
		for wk, img := range sl.befores {
			if img == nil {
				delete(heap, wk)
			} else {
				heap[wk] = img
			}
		}
		s.Abort(&sl.txn)
		endSlot(sl)
	}
	var fin Txn
	var finRet RetireSet
	for si := range slots {
		// Each slot's retire ring must drain now that the watermark is the
		// clock itself (under SSI, the Begin's rec reap stales every mark
		// before the prune runs, so mark-pinned chains drain too).
		s.Begin(&fin, &slots[si].ret)
		s.Abort(&fin)
		if n := slots[si].ret.Len(); n != 0 {
			t.Fatalf("slot %d retire ring holds %d entries after full drain", si, n)
		}
	}
	s.Begin(&fin, &finRet)
	for ki := byte(0); ki < fuzzKeys; ki++ {
		k := fuzzKey(ki)
		buf, got := readPrefix(t, s, &fin, k, heap, fuzzImgLen)
		wantVal, want := oracleVisible(hist[k], fin.Snapshot())
		if got != want || (got && !bytes.Equal(buf, fuzzImage(wantVal))) {
			t.Fatalf("final read key=%v: (%x,%v), oracle (%x,%v)", k, buf, got, fuzzImage(wantVal), want)
		}
	}
	s.Abort(&fin)
	// The final reads left SIREAD marks, even on absent keys; the
	// aborted reader's marks are stale at once, and one more begin/abort
	// cycle prunes the chains.
	s.Begin(&fin, &finRet)
	s.Abort(&fin)
	if n := finRet.Len(); n != 0 {
		t.Fatalf("final retire ring holds %d entries after drain", n)
	}
	if n := s.Chains(); n != 0 {
		t.Fatalf("%d chains leaked after drain+prune (ssi=%v)", n, s.SSI())
	}
	if n := liveMarks(s); n != 0 {
		t.Fatalf("%d SIREAD marks still live after drain", n)
	}
}

func FuzzVisibility(f *testing.F) {
	f.Fuzz(func(t *testing.T, tape []byte) {
		if len(tape) > 4096 {
			tape = tape[:4096]
		}
		runVisibilityTape(t, tape, false)
		runVisibilityTape(t, tape, true)
	})
}
