package wal

import (
	"bytes"
	"testing"
	"testing/quick"
)

func ap(t *testing.T, l *Log, r Record) int64 {
	t.Helper()
	at, err := l.Append(r)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

func mustRecover(t *testing.T, l *Log, tables map[uint32]Applier) RecoverStats {
	t.Helper()
	st, _, err := recoverChecked(t, l, tables) // against the copying oracle too
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestAppendReturnsOffsets: a record's name is the offset it starts at,
// buffered or forced, and the records lie end to end. With one-byte fields a
// header is the checksum, the kind byte, txn, rid and off, and the length
// when the record carries a byte string: the insert takes 4+5+1 bytes, the
// commit 4+4, the update, its span one byte at offset 1, 4+5+2.
func TestAppendReturnsOffsets(t *testing.T) {
	l := New()
	a := ap(t, l, Record{Txn: 1, Type: RecInsert, Table: 2, RID: 3, After: []byte{1}})
	b := ap(t, l, Record{Txn: 1, Type: RecCommit})
	c := ap(t, l, Record{Txn: 2, Type: RecUpdate, Before: []byte{1, 2, 3}, After: []byte{1, 5, 3}})
	if a != 0 || b != 10 || c != 18 || l.Size() != 29 {
		t.Errorf("records at %d, %d, %d, log %d bytes; want 0, 10, 18, 29", a, b, c, l.Size())
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
			Type:  RecType(typRaw % 6),
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
		if _, err := l.Append(r); err != nil {
			return false
		}
		recs, _, err := l.Scan()
		if err != nil || len(recs) != 1 {
			return false
		}
		got := recs[0]
		if got.Txn != r.Txn || got.Type != r.Type || got.Table != r.Table || got.RID != r.RID {
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
// and the record carries those 21 bytes twice, not the row twice, behind a
// header of a checksum and five one-byte fields.
func TestSpanOfStockUpdate(t *testing.T) {
	before := make([]byte, 306)
	after := bytes.Clone(before)
	after[8], after[28] = 1, 1
	l := New()
	ap(t, l, Record{Txn: 1, Type: RecUpdate, Before: before, After: after})
	if got, want := l.Size(), int64(4+5+2*21); got != want {
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
	if _, _, err := l.Scan(); err == nil {
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
	if _, _, err := RecoverDist(l, map[uint32]Applier{}); err == nil {
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

// undoAt is a rollback's step: the data record at offset at, read back by
// DataRecord, taken back off its row by Undo.
func undoAt(l *Log, at int64, a Applier) error {
	r, err := l.DataRecord(at)
	if err != nil {
		return err
	}
	return Undo(a, r)
}

// TestUndoTakesRecordsBackOffTheirRows is a rollback's side of the log:
// DataRecord reads a record back by the offset Append returned and Undo
// takes it off its row — an insert's row goes, a delete's image comes back,
// an update's before-span is written over the row — newest first, also for
// an update that straddles a segment boundary and so is read back as a
// private copy.
func TestUndoTakesRecordsBackOffTheirRows(t *testing.T) {
	before, after := make([]byte, 300), make([]byte, 300)
	for i := range after {
		after[i] = byte(i + 1)
	}
	l := New()
	fillTo(t, l, segSize-100)
	tab := newMemTable()
	tab.rows[6] = []byte{4, 4}
	up := ap(t, l, Record{Txn: 2, Type: RecUpdate, Table: 1, RID: 5, Before: before, After: after})
	if up != segSize-100 || l.Size() <= segSize {
		t.Fatalf("update at [%d,%d) does not straddle the boundary at %d", up, l.Size(), segSize)
	}
	tab.rows[5] = bytes.Clone(after)
	del := ap(t, l, Record{Txn: 2, Type: RecDelete, Table: 1, RID: 6, Before: []byte{4, 4}})
	delete(tab.rows, 6)
	ins := ap(t, l, Record{Txn: 2, Type: RecInsert, Table: 1, RID: 7, After: []byte{9}})
	tab.rows[7] = []byte{9}
	for _, at := range []int64{ins, del, up} {
		if err := undoAt(l, at, tab); err != nil {
			t.Fatalf("undo at %d: %v", at, err)
		}
	}
	if len(tab.rows) != 2 || !bytes.Equal(tab.rows[5], before) || !bytes.Equal(tab.rows[6], []byte{4, 4}) {
		t.Errorf("rows after the rollback %v, want 5 zeroed again and 6 back as 0404", tab.rows)
	}
}

// TestUndoRefusesWhatIsNoDataRecord: an offset at or past the log's end, or
// before its start, and one naming a commit record, are errors, not panics,
// and leave the table alone.
func TestUndoRefusesWhatIsNoDataRecord(t *testing.T) {
	l := New()
	ap(t, l, Record{Txn: 1, Type: RecInsert, Table: 0, RID: 1, After: []byte{1}})
	commit := ap(t, l, commitRec(1))
	tab := newMemTable()
	tab.rows[1] = []byte{1}
	for _, at := range []int64{l.Size(), l.Size() + 1, l.Size() + segSize, -1, commit} {
		if err := undoAt(l, at, tab); err == nil {
			t.Errorf("undo at %d of a %d-byte log succeeded", at, l.Size())
		}
	}
	if len(tab.rows) != 1 || tab.rows[1][0] != 1 {
		t.Errorf("a refused undo changed the table: %v", tab.rows)
	}
	if err := undoAt(New(), 0, tab); err == nil {
		t.Error("undo in an empty log succeeded")
	}
}

// TestEveryOffsetDecodesCold: a record's name is enough to read it. Two
// transactions interleave inserts, updates and deletes over tables inside
// and past the kind byte's range, one commits, the other prepares and then
// commits, and one record's header straddles a segment boundary. At every
// offset Append returned, a fresh cursor decodes exactly the record
// appended there, knowing nothing of the records before it; and Undo at
// every data record's offset, newest first, gives each row back the bytes
// it had before the record.
func TestEveryOffsetDecodesCold(t *testing.T) {
	const a, b, gid = 1<<21 + 1, 3, 0x1_0000_0000_0007
	l := New()
	tabs := map[uint32]*memTable{}
	tab := func(id uint32) *memTable {
		if tabs[id] == nil {
			tabs[id] = newMemTable()
		}
		return tabs[id]
	}
	stock := make([]byte, 306)
	tab(8).rows[1<<40] = bytes.Clone(stock) // Redo patches a row where Read returns it
	tab(20).rows[5] = []byte{9, 9}
	tab(2).rows[7] = make([]byte, 300)
	type entry struct {
		at    int64
		rec   Record
		prior []byte // the row before the record, nil when absent
	}
	var entries []entry
	added := func(at int64, r Record) {
		if err := r.span(); err != nil {
			t.Fatal(err)
		}
		e := entry{at: at, rec: r, prior: bytes.Clone(tab(r.Table).rows[r.RID])}
		if r.Type <= RecDelete {
			if err := Redo(tab(r.Table), r); err != nil {
				t.Fatal(err)
			}
		}
		entries = append(entries, e)
	}
	add := func(r Record) { added(ap(t, l, r), r) }

	newStock := bytes.Clone(stock)
	newStock[8], newStock[28] = 1, 1
	newRow := make([]byte, 300)
	for i := range newRow {
		newRow[i] = byte(i + 1)
	}
	add(Record{Txn: a, Type: RecInsert, Table: 1, RID: 10, After: []byte{1, 2, 3}})
	add(Record{Txn: b, Type: RecUpdate, Table: 8, RID: 1 << 40, Before: stock, After: newStock})
	add(Record{Txn: a, Type: RecUpdate, Table: 1, RID: 10, Before: []byte{1, 2, 3}, After: []byte{1, 7, 3}})
	add(Record{Txn: b, Type: RecDelete, Table: 20, RID: 5, Before: []byte{9, 9}})
	add(Record{Txn: a, Type: RecCommit})
	add(Record{Txn: b, Type: RecPrepare, RID: gid})
	added(fillTo(t, l, segSize-5))
	add(Record{Txn: b, Type: RecUpdate, Table: 2, RID: 7, Before: make([]byte, 300), After: newRow})
	add(Record{Txn: b, Type: RecCommit, RID: gid})
	if at := entries[len(entries)-2].at; at != segSize-5 {
		t.Fatalf("the straddling record is at %d, want %d", at, segSize-5)
	}

	for i, e := range entries {
		c := cursor{segs: l.segs, off: int(e.at), end: int(l.Size())}
		f, err := c.next(true)
		if err != nil || f.void || !sameRecord(f.Record, e.rec) {
			t.Fatalf("at %d: decoded %+v (void %t), %v; appended %+v", e.at, f.Record, f.void, err, e.rec)
		}
		next := l.Size()
		if i+1 < len(entries) {
			next = entries[i+1].at
		}
		if int64(c.off) != next {
			t.Errorf("at %d: the record ends at %d, the next one starts at %d", e.at, c.off, next)
		}
	}
	for i := len(entries) - 1; i >= 0; i-- {
		e := entries[i]
		if e.rec.Type > RecDelete {
			continue
		}
		rows := tab(e.rec.Table).rows
		if err := undoAt(l, e.at, tab(e.rec.Table)); err != nil {
			t.Fatalf("undo at %d: %v", e.at, err)
		}
		if got, ok := rows[e.rec.RID]; ok != (e.prior != nil) || !bytes.Equal(got, e.prior) {
			t.Errorf("undo at %d: table %d row %d is %x, want %x", e.at, e.rec.Table, e.rec.RID, got, e.prior)
		}
	}
}
