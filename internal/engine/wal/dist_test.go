package wal

import (
	"bytes"
	"testing"
)

// memTable for dist tests lives in wal_test.go (newMemTable).

func mustAppend(t *testing.T, l *Log, r Record) {
	t.Helper()
	if _, err := l.Append(r); err != nil {
		t.Fatal(err)
	}
}

// TestPrepareIsForced checks that a prepare record lands in the durable
// prefix, exactly like commit and abort records.
func TestPrepareIsForced(t *testing.T) {
	l := New()
	mustAppend(t, l, Record{Txn: 1, Type: RecInsert, Table: 0, RID: 1, After: []byte{1}})
	if l.DurableSize() != 0 {
		t.Fatal("data record should not force")
	}
	mustAppend(t, l, Record{Txn: 1, Type: RecPrepare, RID: 42})
	if l.DurableSize() != l.Size() {
		t.Fatalf("prepare must force: durable %d of %d", l.DurableSize(), l.Size())
	}
}

// TestPrepareForcedGrouped checks the group-commit path forces prepares.
func TestPrepareForcedGrouped(t *testing.T) {
	l := New()
	l.SetGroupCommit(GroupConfig{MaxBatch: 8})
	mustAppend(t, l, Record{Txn: 1, Type: RecInsert, Table: 0, RID: 1, After: []byte{1}})
	mustAppend(t, l, Record{Txn: 1, Type: RecPrepare, RID: 42})
	if l.DurableSize() != l.Size() {
		t.Fatalf("grouped prepare must force: durable %d of %d", l.DurableSize(), l.Size())
	}
}

// TestRecoverDistInDoubt: a prepared-but-undecided branch is rolled back
// to before-images (presumed abort) and reported in-doubt with its data
// records retained.
func TestRecoverDistInDoubt(t *testing.T) {
	l := New()
	// Txn 1: committed local transaction.
	mustAppend(t, l, Record{Txn: 1, Type: RecInsert, Table: 0, RID: 1, After: []byte{10}})
	mustAppend(t, l, Record{Txn: 1, Type: RecCommit})
	// Txn 2: prepared branch of gid 7, no decision.
	mustAppend(t, l, Record{Txn: 2, Type: RecUpdate, Table: 0, RID: 1, Before: []byte{10}, After: []byte{20}})
	mustAppend(t, l, Record{Txn: 2, Type: RecInsert, Table: 0, RID: 9, After: []byte{9}})
	mustAppend(t, l, Record{Txn: 2, Type: RecPrepare, RID: 7})
	// Txn 3: prepared AND decided (commit carrying its gid).
	mustAppend(t, l, Record{Txn: 3, Type: RecInsert, Table: 0, RID: 5, After: []byte{5}})
	mustAppend(t, l, Record{Txn: 3, Type: RecPrepare, RID: 8})
	mustAppend(t, l, Record{Txn: 3, Type: RecCommit, RID: 8})

	tab := newMemTable()
	st, dist, err := recoverChecked(t, l, map[uint32]Applier{0: tab})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.rows[1]; got[0] != 10 {
		t.Errorf("in-doubt update not rolled back: row 1 = %v", got)
	}
	if _, ok := tab.rows[9]; ok {
		t.Error("in-doubt insert should be absent after presumed abort")
	}
	if got := tab.rows[5]; got[0] != 5 {
		t.Errorf("decided prepare lost: row 5 = %v", got)
	}
	if len(dist.InDoubt) != 1 {
		t.Fatalf("in-doubt = %+v, want exactly txn 2", dist.InDoubt)
	}
	idt := dist.InDoubt[0]
	if idt.Txn != 2 || idt.GID != 7 || len(idt.Records) != 2 {
		t.Errorf("in-doubt = %+v, want txn 2 gid 7 with 2 records", idt)
	}
	if !bytes.Equal(idt.Records[0].After, []byte{20}) {
		t.Errorf("retained record mismatch: %+v", idt.Records[0])
	}
	if v, ok := dist.Decisions[8]; !ok || !v {
		t.Errorf("decision for gid 8 = %v,%v, want commit", v, ok)
	}
	if _, ok := dist.Decisions[7]; ok {
		t.Error("undecided gid 7 must not appear in decisions")
	}
	if dist.MaxTxn != 3 {
		t.Errorf("MaxTxn = %d, want 3", dist.MaxTxn)
	}
	if st.SkippedUncommitted == 0 {
		t.Error("in-doubt records should count as skipped-uncommitted")
	}
}

// TestRecoverDistAbortDecision: an abort record carrying a gid records a
// durable abort decision and the branch is not in-doubt.
func TestRecoverDistAbortDecision(t *testing.T) {
	l := New()
	mustAppend(t, l, Record{Txn: 4, Type: RecInsert, Table: 0, RID: 2, After: []byte{2}})
	mustAppend(t, l, Record{Txn: 4, Type: RecPrepare, RID: 11})
	mustAppend(t, l, Record{Txn: 4, Type: RecAbort, RID: 11})
	tab := newMemTable()
	_, dist, err := recoverChecked(t, l, map[uint32]Applier{0: tab})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.InDoubt) != 0 {
		t.Fatalf("aborted prepare reported in-doubt: %+v", dist.InDoubt)
	}
	if v, ok := dist.Decisions[11]; !ok || v {
		t.Errorf("decision for gid 11 = %v,%v, want abort", v, ok)
	}
	if _, ok := tab.rows[2]; ok {
		t.Error("aborted branch's insert survived")
	}
}

// TestRecoverDistSurvivesPowerLoss: the prepare is in the forced prefix,
// so the in-doubt state survives CrashTail damage to the volatile tail.
func TestRecoverDistSurvivesPowerLoss(t *testing.T) {
	l := New()
	mustAppend(t, l, Record{Txn: 2, Type: RecUpdate, Table: 0, RID: 1, Before: []byte{1}, After: []byte{2}})
	mustAppend(t, l, Record{Txn: 2, Type: RecPrepare, RID: 99})
	// Volatile tail: an unforced data record of another transaction.
	mustAppend(t, l, Record{Txn: 5, Type: RecInsert, Table: 0, RID: 3, After: []byte{3}})
	cut(l, l.forcedLen) // lose the whole volatile tail

	tab := newMemTable()
	tab.rows[1] = []byte{2} // the prepare forced the log, so the page may be out
	_, dist, err := recoverChecked(t, l, map[uint32]Applier{0: tab})
	if err != nil {
		t.Fatal(err)
	}
	if len(dist.InDoubt) != 1 || dist.InDoubt[0].GID != 99 {
		t.Fatalf("in-doubt lost with the tail: %+v", dist.InDoubt)
	}
	if got := tab.rows[1]; got[0] != 1 {
		t.Errorf("before-span not restored: %v", got)
	}
}
