package wal

import (
	"bytes"
	"testing"
)

// decodeRecord reads one record from the front of buf, returning it and the
// remainder. The record's byte strings alias buf. It fails with ErrTruncated
// when buf ends mid-record and ErrCorrupt when the checksum does not match.
func decodeRecord(buf []byte) (Record, []byte, error) {
	total, err := recordLen(buf, len(buf))
	if err != nil {
		return Record{}, nil, err
	}
	r, err := parseRecord(buf[:total:total], true)
	if err != nil {
		return Record{}, nil, err
	}
	return r, buf[total:], nil
}

// FuzzDecodeRecord feeds arbitrary bytes to the record decoder: it must
// either return a record or an error, never panic, and re-encoding a
// successfully decoded record must round-trip. The same bytes, halved into
// a before- and an after-image, then go through the span encoding: writing
// the logged before-span over the after-image must reproduce the
// before-image, and the after-span over the before-image the after-image.
func FuzzDecodeRecord(f *testing.F) {
	l := New()
	l.Append(Record{Txn: 1, Type: RecUpdate, Table: 3, RID: 77,
		Before: []byte{1, 2, 9}, After: []byte{3, 4, 9}})
	l.Append(Record{Txn: 2, Type: RecCommit})
	f.Add(flat(l))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		half := len(data) / 2
		before, after := data[:half:half], data[half:2*half]
		sp := Record{Type: RecUpdate, Before: before, After: after}
		if err := sp.span(); err != nil {
			t.Fatalf("images of one length refused: %v", err)
		}
		sp, _, err := decodeRecord(encoded(sp))
		if err != nil {
			t.Fatalf("span record does not decode: %v", err)
		}
		if !bytes.Equal(withSpan(after, sp.Off, sp.Before), before) || !bytes.Equal(withSpan(before, sp.Off, sp.After), after) {
			t.Fatalf("span %d+%x/%x does not carry %x to %x and back", sp.Off, sp.Before, sp.After, before, after)
		}

		rec, rest, err := decodeRecord(data)
		if err != nil {
			return
		}
		if len(rest) > len(data) {
			t.Fatal("remainder longer than input")
		}
		// Round-trip the decoded record.
		rec2, _, err := decodeRecord(encoded(rec))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if rec2.Txn != rec.Txn || rec2.Type != rec.Type || rec2.Table != rec.Table ||
			rec2.RID != rec.RID || rec2.Off != rec.Off || !bytes.Equal(rec2.Before, rec.Before) ||
			!bytes.Equal(rec2.After, rec.After) {
			t.Fatal("round-trip mismatch")
		}
	})
}

// Fuzz2PCLog exercises the two-phase-commit record path: a participant
// branch prepares under a fuzzed gid and is optionally decided, the log
// tail is cut, and distributed recovery runs. The prepare record's
// encode/decode round-trip must preserve the gid exactly; recovery must
// never panic; on an intact log a decided branch must not be in-doubt and
// an undecided one must be, with its gid intact.
func Fuzz2PCLog(f *testing.F) {
	f.Add(uint64(2), uint64(7), false, false, uint16(0))
	f.Add(uint64(2), uint64(1<<63), true, true, uint16(0))
	f.Add(uint64(9), uint64(0), true, false, uint16(0))
	f.Add(uint64(2), uint64(7), true, true, uint16(20))
	f.Fuzz(func(t *testing.T, txn, gid uint64, decide, commit bool, drop uint16) {
		// Encode/decode round-trip of the prepare record itself.
		prep := Record{LSN: 1, Txn: txn, Type: RecPrepare, RID: gid}
		dec, rest, err := decodeRecord(encoded(prep))
		if err != nil || len(rest) != 0 {
			t.Fatalf("prepare decode failed: %v (rest %d)", err, len(rest))
		}
		if dec.Txn != txn || dec.Type != RecPrepare || dec.RID != gid {
			t.Fatalf("prepare round-trip mismatch: %+v", dec)
		}

		l := New()
		app := func(r Record) {
			if _, err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		app(Record{Txn: txn, Type: RecUpdate, Table: 0, RID: 1,
			Before: []byte{1}, After: []byte{2}})
		app(Record{Txn: txn, Type: RecPrepare, RID: gid})
		if decide {
			typ := RecAbort
			if commit {
				typ = RecCommit
			}
			app(Record{Txn: txn, Type: typ, RID: gid})
		}
		intact := drop == 0
		keep := max(l.size-int(drop), 0)
		cut(l, keep)

		tab := newMemTable()
		_, dist, err := recoverChecked(t, l, map[uint32]Applier{0: tab})
		if err != nil {
			t.Fatalf("distributed recovery errored: %v", err)
		}
		if !intact {
			return
		}
		if decide {
			if len(dist.InDoubt) != 0 {
				t.Fatalf("decided branch reported in-doubt: %+v", dist.InDoubt)
			}
			if gid != 0 {
				if got, ok := dist.Decisions[gid]; !ok || got != commit {
					t.Fatalf("decision for gid %d = %v,%v, want %v", gid, got, ok, commit)
				}
			}
		} else {
			if len(dist.InDoubt) != 1 || dist.InDoubt[0].GID != gid ||
				dist.InDoubt[0].Txn != txn {
				t.Fatalf("undecided branch not in-doubt: %+v", dist.InDoubt)
			}
		}
	})
}

// FuzzLogMutation mutates the serialized bytes of a log whose forced
// prefix holds a committed transaction, then runs recovery. Recovery must
// never panic and never error; it must either replay the committed prefix
// intact (when the damage is past the forced watermark, or a no-op) or
// report the damage via truncation stats. It must also stay idempotent on
// the mutated log.
func FuzzLogMutation(f *testing.F) {
	f.Add(0, byte(0), uint16(0))
	f.Add(3, byte(0x80), uint16(0))
	f.Add(100, byte(0xFF), uint16(5))
	f.Add(-7, byte(1), uint16(1000))
	f.Fuzz(func(t *testing.T, off int, mask byte, drop uint16) {
		l := New()
		app := func(r Record) {
			if _, err := l.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		// Txn 1 commits (forced prefix); txn 2 is unforced volatile tail.
		app(Record{Txn: 1, Type: RecInsert, Table: 0, RID: 1, After: []byte{1}})
		app(Record{Txn: 1, Type: RecUpdate, Table: 0, RID: 1, Before: []byte{1}, After: []byte{2}})
		app(Record{Txn: 1, Type: RecCommit})
		app(Record{Txn: 2, Type: RecInsert, Table: 0, RID: 9, After: []byte{7}})
		durable := int(l.DurableSize())

		keep := max(l.size-int(drop), 0)
		cut(l, keep)
		damagedForced := false
		if l.size > 0 && mask != 0 {
			o := ((off % l.size) + l.size) % l.size
			flip(l, o, mask)
			// A flip past the forced watermark only damages the
			// volatile tail, which recovery may discard freely.
			damagedForced = o < durable
		}
		forcedIntact := keep >= durable && !damagedForced

		tab := newMemTable()
		st, _, err := recoverChecked(t, l, map[uint32]Applier{0: tab})
		if err != nil {
			t.Fatalf("recovery errored on damaged log: %v", err)
		}
		if forcedIntact {
			// The committed prefix survived: txn 1's final state must be
			// replayed exactly, regardless of tail damage.
			if got, ok := tab.rows[1]; !ok || got[0] != 2 {
				t.Fatalf("committed row lost after tail damage: %v", tab.rows)
			}
		} else if damagedForced {
			// Damage inside the forced prefix must be *reported*: a
			// CRC32 can never validate a nonzero single-byte xor, so the
			// scan must have stopped at or before the damaged record.
			if st.TruncatedBytes == 0 && !st.TailCorrupt {
				t.Fatalf("forced-prefix damage went unreported: %+v", st)
			}
		}
		// Recovery is idempotent on whatever state the log is in now.
		tab2 := newMemTable()
		st2, err := Recover(l, map[uint32]Applier{0: tab2})
		if err != nil {
			t.Fatalf("second recovery errored: %v", err)
		}
		if st2.TruncatedBytes != 0 {
			t.Fatalf("second recovery still truncating: %+v", st2)
		}
		if len(tab.rows) != len(tab2.rows) {
			t.Fatalf("recovery not idempotent: %v vs %v", tab.rows, tab2.rows)
		}
	})
}
