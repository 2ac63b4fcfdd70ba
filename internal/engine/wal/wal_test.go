package wal

import (
	"bytes"
	"testing"
	"testing/quick"
)

func ap(t *testing.T, l *Log, r Record) LSN {
	t.Helper()
	lsn, err := l.Append(r)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

func mustRecover(t *testing.T, l *Log, tables map[uint32]Applier) RecoverStats {
	t.Helper()
	st, _, err := recoverChecked(t, l, tables) // against the copying oracle too
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestAppendAssignsLSNs(t *testing.T) {
	l := New()
	a := ap(t, l, Record{Txn: 1, Type: RecInsert, Table: 2, RID: 3, After: []byte{1}})
	b := ap(t, l, Record{Txn: 1, Type: RecCommit})
	if a != 1 || b != 2 {
		t.Errorf("LSNs = %d, %d", a, b)
	}
	if l.Forces() != 1 {
		t.Errorf("Forces = %d, want 1 (only the commit)", l.Forces())
	}
}

// TestEncodeDecodeRoundTrip: a record with one image reads back as
// written; a record with two reads back as the span between the first and
// the last byte that differ, and writing either span over the other image
// reproduces the image it came from.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	f := func(txn uint64, typRaw uint8, table uint32, rid uint64, before, after []byte) bool {
		r := Record{
			Txn:   txn,
			Type:  RecType(typRaw % 5),
			Table: table,
			RID:   rid,
		}
		if n := min(len(before), len(after)); n > 0 {
			before, after = before[:n], after[:n]
		}
		if len(before) > 0 {
			r.Before = before
		}
		if len(after) > 0 {
			r.After = after
		}
		l := New()
		lsn, err := l.Append(r)
		if err != nil {
			return false
		}
		recs, err := l.Records()
		if err != nil || len(recs) != 1 {
			return false
		}
		got := recs[0]
		if got.LSN != lsn || got.Txn != r.Txn || got.Type != r.Type || got.Table != r.Table || got.RID != r.RID {
			return false
		}
		if r.Before == nil || r.After == nil {
			return got.Off == 0 && bytes.Equal(got.Before, r.Before) && bytes.Equal(got.After, r.After)
		}
		if n := len(got.Before); n != len(got.After) ||
			n > 0 && (got.Before[0] == got.After[0] || got.Before[n-1] == got.After[n-1]) {
			return false
		}
		return bytes.Equal(withSpan(r.Before, got.Off, got.After), r.After) &&
			bytes.Equal(withSpan(r.After, got.Off, got.Before), r.Before)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestSpanOfStockUpdate is the arithmetic the format exists for: a New-Order
// changes quantity, ytd, order and remote counts of a 306-byte Stock row,
// and the record carries those 21 bytes twice, not the row twice.
func TestSpanOfStockUpdate(t *testing.T) {
	before := make([]byte, 306)
	after := bytes.Clone(before)
	after[8], after[28] = 1, 1
	l := New()
	ap(t, l, Record{Txn: 1, Type: RecUpdate, Before: before, After: after})
	if got, want := l.Size(), int64(recHeader+2*21); got != want {
		t.Errorf("stock update logged as %d bytes, want %d", got, want)
	}
	if _, err := l.Append(Record{Txn: 1, Type: RecUpdate, Before: before, After: after[:305]}); err == nil {
		t.Error("an update that changes the row's length must be refused")
	}
}

func TestDecodeTruncated(t *testing.T) {
	if _, _, err := decodeRecord([]byte{1, 2, 3}); err == nil {
		t.Error("short header should fail")
	}
	l := New()
	ap(t, l, Record{Txn: 1, Type: RecInsert, After: []byte{1, 2, 3}})
	cut(l, l.size-2) // chop the body
	if _, err := l.Records(); err == nil {
		t.Error("truncated body should fail")
	}
}

// memTable is an Applier over a map, for recovery-logic tests.
type memTable struct {
	rows map[uint64][]byte
}

func newMemTable() *memTable { return &memTable{rows: make(map[uint64][]byte)} }

func (m *memTable) Read(rid uint64) ([]byte, error) { return m.rows[rid], nil }

func (m *memTable) Apply(rid uint64, image []byte) error {
	if image == nil {
		delete(m.rows, rid)
		return nil
	}
	m.rows[rid] = append([]byte(nil), image...)
	return nil
}

func TestRecoverRedoesOnlyCommitted(t *testing.T) {
	l := New()
	// Txn 1 commits: insert row 1, update it, insert row 2, delete row 2.
	ap(t, l, Record{Txn: 1, Type: RecInsert, Table: 0, RID: 1, After: []byte{1}})
	ap(t, l, Record{Txn: 1, Type: RecUpdate, Table: 0, RID: 1, Before: []byte{1}, After: []byte{2}})
	ap(t, l, Record{Txn: 1, Type: RecInsert, Table: 0, RID: 2, After: []byte{9}})
	ap(t, l, Record{Txn: 1, Type: RecDelete, Table: 0, RID: 2, Before: []byte{9}})
	ap(t, l, Record{Txn: 1, Type: RecCommit})
	// Txn 2 never commits: its insert must end up absent.
	ap(t, l, Record{Txn: 2, Type: RecInsert, Table: 0, RID: 3, After: []byte{7}})
	// Txn 3 aborts explicitly.
	ap(t, l, Record{Txn: 3, Type: RecInsert, Table: 0, RID: 4, After: []byte{8}})
	ap(t, l, Record{Txn: 3, Type: RecAbort})

	// Simulate steal: the uncommitted inserts were flushed pre-crash.
	tab := newMemTable()
	tab.rows[3] = []byte{7}
	tab.rows[4] = []byte{8}

	st := mustRecover(t, l, map[uint32]Applier{0: tab})
	if st.Applied != 4 || st.SkippedUncommitted != 2 {
		t.Errorf("applied %d skipped %d, want 4/2", st.Applied, st.SkippedUncommitted)
	}
	if got, ok := tab.rows[1]; !ok || got[0] != 2 {
		t.Errorf("row 1 = %v, want after-image 2", got)
	}
	if _, ok := tab.rows[2]; ok {
		t.Error("deleted row 2 resurrected")
	}
	if _, ok := tab.rows[3]; ok {
		t.Error("uncommitted flushed row 3 not rolled back")
	}
	if _, ok := tab.rows[4]; ok {
		t.Error("aborted flushed row 4 not rolled back")
	}
}

// TestRecoverStealUpdate verifies the before-image path: an uncommitted
// UPDATE flushed to disk is rolled back to the pre-transaction value, and
// a later committed write supersedes an earlier aborted one.
func TestRecoverStealUpdate(t *testing.T) {
	l := New()
	// Committed txn 1 sets row 5 to 10.
	ap(t, l, Record{Txn: 1, Type: RecUpdate, Table: 0, RID: 5, Before: []byte{1}, After: []byte{10}})
	ap(t, l, Record{Txn: 1, Type: RecCommit})
	// Aborted txn 2 set it to 99 (its before-image is txn 1's value).
	ap(t, l, Record{Txn: 2, Type: RecUpdate, Table: 0, RID: 5, Before: []byte{10}, After: []byte{99}})
	ap(t, l, Record{Txn: 2, Type: RecAbort})
	// Uncommitted txn 3 touched row 6 only.
	ap(t, l, Record{Txn: 3, Type: RecUpdate, Table: 0, RID: 6, Before: []byte{42}, After: []byte{43}})

	tab := newMemTable()
	tab.rows[5] = []byte{99} // steal flushed the aborted value
	tab.rows[6] = []byte{43} // steal flushed the uncommitted value
	mustRecover(t, l, map[uint32]Applier{0: tab})
	if got := tab.rows[5]; got[0] != 10 {
		t.Errorf("row 5 = %v, want committed 10", got)
	}
	if got := tab.rows[6]; got[0] != 42 {
		t.Errorf("row 6 = %v, want before-image 42", got)
	}
}

func TestRecoverUnknownTable(t *testing.T) {
	l := New()
	ap(t, l, Record{Txn: 1, Type: RecInsert, Table: 42, RID: 1, After: []byte{1}})
	ap(t, l, Record{Txn: 1, Type: RecCommit})
	if _, err := Recover(l, map[uint32]Applier{}); err == nil {
		t.Error("missing applier should fail")
	}
}

func TestRecoverIsIdempotent(t *testing.T) {
	l := New()
	ap(t, l, Record{Txn: 1, Type: RecInsert, Table: 0, RID: 1, After: []byte{5}})
	ap(t, l, Record{Txn: 1, Type: RecCommit})
	tab := newMemTable()
	for i := 0; i < 3; i++ {
		mustRecover(t, l, map[uint32]Applier{0: tab})
	}
	if len(tab.rows) != 1 || tab.rows[1][0] != 5 {
		t.Errorf("rows after triple recovery: %v", tab.rows)
	}
}
