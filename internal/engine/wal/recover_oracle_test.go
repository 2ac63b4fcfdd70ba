package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"tpccmodel/internal/rng"
)

// encoded returns r as it lies in the log: header, both byte strings, and
// in the header's first four bytes the checksum of everything after them.
func encoded(r Record) []byte {
	var hdr [maxHeader]byte
	n := r.header(&hdr)
	out := append(append(hdr[:n:n], r.Before...), r.After...)
	binary.LittleEndian.PutUint32(out, crc32.Checksum(out[4:], castagnoli))
	return out
}

// encodedLen returns the number of log bytes r takes, as header predicts.
func (r *Record) encodedLen() int {
	var hdr [maxHeader]byte
	return r.header(&hdr) + len(r.Before) + len(r.After)
}

// cut truncates l to its first n bytes, the watermark with it.
func cut(l *Log, n int) {
	l.truncate(n)
	l.forcedLen = min(l.forcedLen, n)
}

// flip xors mask into the log byte at off.
func flip(l *Log, off int, mask byte) { l.segs[off/segSize][off%segSize] ^= mask }

// flat returns a copy of the log's bytes.
func flat(l *Log) []byte {
	c := cursor{segs: l.segs}
	out := make([]byte, 0, l.size)
	for ; c.off < l.size; c.off = len(out) {
		out = append(out, c.bytes(min(l.size-c.off, segSize-c.off%segSize))...)
	}
	return out
}

// cloneLog copies a log's bytes and watermark.
func cloneLog(l *Log) *Log {
	c := New()
	for _, seg := range l.segs {
		c.segs = append(c.segs, bytes.Clone(seg))
	}
	c.truncate(l.size)
	c.forcedLen = l.forcedLen
	return c
}

// withSpan returns a copy of row with span written at off; an absent row
// stays absent.
func withSpan(row []byte, off uint32, span []byte) []byte {
	if row == nil {
		return nil
	}
	out := bytes.Clone(row)
	_ = patch(out, off, span) // a span outside the row shows up as a mismatch
	return out
}

// recoverDistCopying is the oracle RecoverDist is compared against:
// recovery as it was when update records carried two full images. Scan
// copies the log out, the spans are expanded back into the full images they
// stand for, and the old image rule decides each row: a committed record
// sets the row to its after-image, a record without a commit sets it to its
// before-image if nothing is known about the row yet.
//
// The expansion needs each row as it was when its record was written, and
// all the oracle has is the durable row, flushed at some unknown later
// point. So it first walks the log backwards taking every record off the
// durable rows, which leaves each row as it was before the log began — every
// byte the log ever changed gets the before-byte of the oldest record that
// covers it — and then walks forwards over that shadow, advancing it by the
// committed records only: whatever precedes a committed record on a row and
// did not commit was rolled back before the row's lock was granted again.
func recoverDistCopying(l *Log, tables map[uint32]Applier) (RecoverStats, DistState, error) {
	var st RecoverStats
	dist := DistState{Committed: make(map[uint64]struct{})}
	recs, valid, scanErr := l.Scan()
	st.Records, st.Bytes = int64(len(recs)), valid
	if scanErr != nil {
		st.TruncatedBytes = l.Size() - valid
		st.TailCorrupt = errors.Is(scanErr, ErrCorrupt)
		cut(l, int(valid))
	}
	committed := make(map[uint64]bool)
	decided := make(map[uint64]bool)
	prepared := make(map[uint64]uint64)
	var prepOrder []uint64
	for _, r := range recs {
		if r.Txn > dist.MaxTxn {
			dist.MaxTxn = r.Txn
		}
		switch r.Type {
		case RecCommit:
			committed[r.Txn] = true
			decided[r.Txn] = true
			if r.RID != 0 {
				dist.Committed[r.RID] = struct{}{}
			}
		case RecAbort:
			decided[r.Txn] = true
		case RecPrepare:
			if _, seen := prepared[r.Txn]; !seen {
				prepOrder = append(prepOrder, r.Txn)
			}
			prepared[r.Txn] = r.RID
		}
	}
	isData := func(r Record) bool {
		_, ok := tables[r.Table]
		return ok && r.Type != RecCommit && r.Type != RecAbort && r.Type != RecPrepare
	}
	shadow := make(map[rowKey][]byte)
	for _, r := range recs {
		key := rowKey{table: r.Table, rid: r.RID}
		if _, read := shadow[key]; read || !isData(r) {
			continue
		}
		row, err := tables[r.Table].Read(r.RID)
		if err != nil {
			return st, dist, err
		}
		shadow[key] = bytes.Clone(row)
	}
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		if !isData(r) {
			continue
		}
		key := rowKey{table: r.Table, rid: r.RID}
		switch r.Type {
		case RecInsert:
			shadow[key] = nil
		case RecDelete:
			shadow[key] = r.Before
		default:
			shadow[key] = withSpan(shadow[key], r.Off, r.Before)
		}
	}
	type rowState struct {
		image []byte
		known bool
	}
	state := make(map[rowKey]rowState)
	order := make([]rowKey, 0)
	inDoubtRecs := make(map[uint64][]Record)
	for _, r := range recs {
		switch r.Type {
		case RecCommit, RecAbort, RecPrepare:
			continue
		}
		if _, prep := prepared[r.Txn]; prep && !decided[r.Txn] {
			inDoubtRecs[r.Txn] = append(inDoubtRecs[r.Txn], r)
		}
		if _, ok := tables[r.Table]; !ok {
			return st, dist, fmt.Errorf("wal: no applier for table %d", r.Table)
		}
		key := rowKey{table: r.Table, rid: r.RID}
		before, after := r.Before, r.After // an insert's or a delete's: full already
		if r.Type == RecUpdate {
			before = withSpan(shadow[key], r.Off, r.Before)
			after = withSpan(shadow[key], r.Off, r.After)
		}
		cur, seen := state[key]
		if !seen {
			order = append(order, key)
		}
		if committed[r.Txn] {
			state[key] = rowState{image: after, known: true}
			shadow[key] = after
			continue
		}
		st.SkippedUncommitted++
		if !cur.known {
			state[key] = rowState{image: before, known: true}
		}
	}
	for _, key := range order {
		if err := tables[key.table].Apply(key.rid, state[key].image); err != nil {
			return st, dist, fmt.Errorf("wal: apply table %d rid %d: %w", key.table, key.rid, err)
		}
		st.Applied++
	}
	for _, txn := range prepOrder {
		if decided[txn] {
			continue
		}
		dist.InDoubt = append(dist.InDoubt, InDoubtTxn{Txn: txn, GID: prepared[txn], Records: inDoubtRecs[txn]})
	}
	return st, dist, nil
}

// applyLog reads the caller's table and records every Apply call, in
// order, without passing it on: two recoveries that apply the same images
// to the same rows in the same order leave the same heap pages, hence the
// same db.StateHash. With write set the call is passed on as well.
type applyLog struct {
	table uint32
	calls *[]string
	inner Applier
	write bool
}

func (a applyLog) Read(rid uint64) ([]byte, error) { return a.inner.Read(rid) }

func (a applyLog) Apply(rid uint64, image []byte) error {
	*a.calls = append(*a.calls, fmt.Sprintf("%d/%d=%x nil=%v", a.table, rid, image, image == nil))
	if !a.write {
		return nil
	}
	return a.inner.Apply(rid, image)
}

// recoverChecked is RecoverDist over the caller's tables with the result
// compared against the copying oracle, which recovers a copy of the log
// first, reading the same durable rows and writing none.
func recoverChecked(t testing.TB, l *Log, tables map[uint32]Applier) (RecoverStats, DistState, error) {
	t.Helper()
	var calls, wantCalls []string
	oracle, wrapped := map[uint32]Applier{}, map[uint32]Applier{}
	for id, inner := range tables {
		oracle[id] = applyLog{table: id, calls: &wantCalls, inner: inner}
		wrapped[id] = applyLog{table: id, calls: &calls, inner: inner, write: true}
	}
	before := cloneLog(l)
	wantSt, wantDist, wantErr := recoverDistCopying(before, oracle)
	st, dist, err := RecoverDist(l, wrapped)
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("in-place recovery error %v, oracle %v", err, wantErr)
	}
	if st != wantSt {
		t.Fatalf("in-place stats %+v, oracle %+v", st, wantSt)
	}
	if !reflect.DeepEqual(dist, wantDist) {
		t.Fatalf("in-place dist state %+v, oracle %+v", dist, wantDist)
	}
	if !reflect.DeepEqual(calls, wantCalls) {
		t.Fatalf("in-place recovery applied %v, oracle %v", calls, wantCalls)
	}
	if !bytes.Equal(flat(l), flat(before)) {
		t.Fatalf("in-place recovery kept %d log bytes, oracle %d", l.size, before.size)
	}
	return st, dist, err
}

// history is a seeded run of an engine-shaped workload against a log: rows
// of fixed length in two tables, written under exclusive locks held to
// commit or abort, an abort restoring what it changed before it logs.
// Alongside the log it keeps what the log no longer says: every value each
// row ever held and how long the log was when it took it (what a page steal
// may have made durable), and the full image every update left.
type history struct {
	l       *Log
	cur     map[rowKey][]byte // rows now; absent rows have no entry
	initial map[rowKey][]byte
	held    map[rowKey][]version
	writes  []write
	commits map[uint64]int64 // txn -> end of its commit record
}

type version struct {
	logged int64 // log size when the row took this value
	image  []byte
}

type write struct {
	txn   uint64
	key   rowKey
	image []byte // the row after the write, nil for a delete
}

func newHistory() *history {
	return &history{l: New(), cur: map[rowKey][]byte{}, initial: map[rowKey][]byte{},
		held: map[rowKey][]version{}, commits: map[uint64]int64{}}
}

// load places a row without logging it, as the loader does.
func (h *history) load(key rowKey, image []byte) {
	h.cur[key], h.initial[key] = image, image
}

// holds notes that key holds image from now on.
func (h *history) holds(key rowKey, image []byte) {
	if image == nil {
		delete(h.cur, key)
	} else {
		h.cur[key] = image
	}
	h.held[key] = append(h.held[key], version{logged: h.l.Size(), image: image})
}

// write logs txn changing the row at key to image (nil deletes it), handing
// the log full images as the engine does, and returns the row's old value.
func (h *history) write(t testing.TB, txn uint64, key rowKey, image []byte) []byte {
	t.Helper()
	old := h.cur[key]
	r := Record{Txn: txn, Type: RecUpdate, Table: key.table, RID: key.rid, Before: old, After: image}
	switch {
	case old == nil:
		r.Type = RecInsert
	case image == nil:
		r.Type = RecDelete
	}
	if _, err := h.l.Append(r); err != nil {
		t.Fatal(err)
	}
	h.holds(key, image)
	h.writes = append(h.writes, write{txn: txn, key: key, image: image})
	return old
}

// end buffers txn's commit, abort or prepare record, unforced.
func (h *history) end(t testing.TB, r Record) {
	t.Helper()
	end, err := h.l.PreCommit(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.Type == RecCommit {
		h.commits[r.Txn] = end
	}
}

// durable returns, for every row, each value a crash may find on its page
// when the log's first forced bytes are durable: the loaded value, and
// every later one whose log records the WAL rule had forced by then.
func (h *history) durable(forced int64) map[rowKey][][]byte {
	out := map[rowKey][][]byte{}
	for key, image := range h.initial {
		out[key] = [][]byte{image}
	}
	for key, versions := range h.held {
		if _, loaded := out[key]; !loaded {
			out[key] = [][]byte{nil}
		}
		for _, v := range versions {
			if v.logged <= forced {
				out[key] = append(out[key], v.image)
			}
		}
	}
	return out
}

// committed returns every row as the transactions whose commit record lies
// within the log's first valid bytes left it.
func (h *history) committed(valid int64) map[rowKey][]byte {
	out := map[rowKey][]byte{}
	for key, image := range h.initial {
		out[key] = image
	}
	for _, w := range h.writes {
		if end, ok := h.commits[w.txn]; ok && end <= valid {
			out[w.key] = w.image
		}
	}
	return out
}

// checkRows compares recovered tables with the committed state.
func checkRows(t testing.TB, tables map[uint32]*memTable, want map[rowKey][]byte) {
	t.Helper()
	for key, image := range want {
		if got := tables[key.table].rows[key.rid]; !bytes.Equal(got, image) || (got == nil) != (image == nil) {
			t.Errorf("table %d rid %d recovered as %x, committed state %x", key.table, key.rid, got, image)
		}
	}
	for id, tab := range tables {
		for rid := range tab.rows {
			if _, ok := want[rowKey{table: id, rid: rid}]; !ok {
				t.Errorf("table %d rid %d recovered, never written", id, rid)
			}
		}
	}
}

// TestInPlaceRecoveryMatchesCopyingOracle drives both recoveries over
// seeded random histories shaped like the engine's: interleaved
// transactions updating a few bytes of, inserting and deleting rows of two
// tables under row locks, some prepared under a gid, some committed, some
// aborted and rolled back, some left open, the tail sometimes cut mid-record
// and sometimes torn, and every row's durable page caught at a random one of
// the moments the steal policy allows. Stats, decisions, in-doubt branches
// (records and spans included) and the sequence of applied images must be
// identical, and the recovered rows must be exactly what the transactions
// whose commit record survived wrote.
func TestInPlaceRecoveryMatchesCopyingOracle(t *testing.T) {
	rowLen := [2]int{16, 40}
	for seed := uint64(1); seed <= 300; seed++ {
		r := rng.New(seed)
		h := newHistory()
		random := func(n int) []byte {
			b := make([]byte, n)
			for i := range b {
				b[i] = byte(r.Int63n(256))
			}
			return b
		}
		for table := range rowLen {
			for rid := uint64(0); rid < 12; rid++ {
				if r.Bernoulli(0.6) {
					h.load(rowKey{uint32(table), rid}, random(rowLen[table]))
				}
			}
		}
		type undo struct {
			key   rowKey
			image []byte
		}
		type open struct {
			id       uint64
			undo     []undo
			prepared bool
		}
		var txns []*open
		locked := map[rowKey]uint64{}
		nextTxn := uint64(1)
		boundaries := []int64{0}
		for n := 20 + r.Int63n(120); n > 0; n-- {
			if len(txns) == 0 || r.Bernoulli(0.2) {
				txns = append(txns, &open{id: nextTxn})
				nextTxn++
			}
			i := int(r.Int63n(int64(len(txns))))
			x := txns[i]
			gid := uint64(r.Int63n(2)) * (1<<48 | x.id)
			done := false
			switch k := r.Int63n(10); {
			case k < 6:
				key := rowKey{uint32(r.Int63n(2)), uint64(r.Int63n(12))}
				if owner, held := locked[key]; x.prepared || held && owner != x.id {
					continue
				}
				locked[key] = x.id
				var image []byte
				switch old := h.cur[key]; {
				case old == nil:
					image = random(rowLen[key.table])
				case r.Bernoulli(0.75):
					image = bytes.Clone(old)
					off := r.Int63n(int64(len(image)))
					copy(image[off:], random(int(1+r.Int63n(12))))
				}
				x.undo = append(x.undo, undo{key, h.write(t, x.id, key, image)})
			case k < 7:
				h.end(t, Record{Txn: x.id, Type: RecPrepare, RID: 1<<48 | x.id})
				x.prepared = true
			case k < 9:
				h.end(t, Record{Txn: x.id, Type: RecCommit, RID: gid})
				done = true
			default:
				for j := len(x.undo) - 1; j >= 0; j-- {
					h.holds(x.undo[j].key, x.undo[j].image)
				}
				h.end(t, Record{Txn: x.id, Type: RecAbort, RID: gid})
				done = true
			}
			boundaries = append(boundaries, h.l.Size())
			if done {
				for key, owner := range locked {
					if owner == x.id {
						delete(locked, key)
					}
				}
				txns = append(txns[:i], txns[i+1:]...)
			}
		}

		// The crash: the log is forced up to some record, and past that the
		// tail survives whole, is cut anywhere, or is cut and torn.
		l := h.l
		forced := boundaries[r.Int63n(int64(len(boundaries)))]
		switch r.Int63n(3) {
		case 0:
			forced = l.Size()
		case 1:
			cut(l, int(forced+r.Int63n(l.Size()-forced+1)))
		case 2:
			l.forcedLen = int(forced)
			l.CrashTail(r)
		}
		tabs := map[uint32]*memTable{0: newMemTable(), 1: newMemTable()}
		for key, images := range h.durable(forced) {
			if image := images[r.Int63n(int64(len(images)))]; image != nil {
				tabs[key.table].rows[key.rid] = image
			}
		}
		if _, _, err := recoverChecked(t, l, map[uint32]Applier{0: tabs[0], 1: tabs[1]}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkRows(t, tabs, h.committed(l.Size()))
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
}

// TestRecoverSpanRuns pins the loser-run rule on the shapes that put more
// than one loser span on a row, and on inserts and deletes mixed into a run,
// each recovered from every value the row's durable page may hold: before
// any of the writes, after each of them, after each step of a rollback.
func TestRecoverSpanRuns(t *testing.T) {
	row := rowKey{table: 0, rid: 7}
	a := []byte("aaaaaaaaaaaaaaaaaaaaaaaa")
	over := func(base []byte, off int, with string) []byte {
		out := bytes.Clone(base)
		copy(out[off:], with)
		return out
	}
	for _, tc := range []struct {
		name string
		// run drives the history; the row is loaded as a unless absent is set.
		absent bool
		run    func(h *history)
		want   []byte
	}{
		{name: "one loser updates the row twice, the spans overlapping", run: func(h *history) {
			h.write(t, 1, row, over(a, 2, "bbbb"))
			h.write(t, 1, row, over(h.cur[row], 4, "cccccc"))
		}, want: a},
		{name: "two early-released transactions both lose their commit record", run: func(h *history) {
			h.write(t, 1, row, over(a, 2, "bbbb"))
			h.write(t, 2, row, over(h.cur[row], 0, "ccc"))
			h.write(t, 2, row, over(h.cur[row], 20, "dd"))
		}, want: a},
		{name: "a run-time abort is later overwritten by a commit elsewhere in the row", run: func(h *history) {
			h.write(t, 1, row, over(a, 2, "bbbb"))
			h.write(t, 1, row, over(h.cur[row], 10, "bb"))
			h.holds(row, over(a, 2, "bbbb"))
			h.holds(row, a)
			h.end(t, Record{Txn: 1, Type: RecAbort})
			h.write(t, 2, row, over(a, 4, "cccccccc"))
			h.end(t, Record{Txn: 2, Type: RecCommit})
			h.write(t, 3, row, over(h.cur[row], 0, "ddddddddd"))
		}, want: over(a, 4, "cccccccc")},
		{name: "one loser inserts the row and updates it", absent: true, run: func(h *history) {
			h.write(t, 1, row, a)
			h.write(t, 1, row, over(a, 8, "bb"))
		}, want: nil},
		{name: "one loser updates the row and deletes it", run: func(h *history) {
			h.write(t, 1, row, over(a, 8, "bb"))
			h.write(t, 1, row, nil)
		}, want: a},
		{name: "a loser deletes the row, rolls back, and a winner updates and deletes it, a loser re-inserting", run: func(h *history) {
			h.write(t, 1, row, nil)
			h.holds(row, a)
			h.write(t, 2, row, over(a, 1, "c"))
			h.write(t, 2, row, nil)
			h.end(t, Record{Txn: 2, Type: RecCommit})
			h.write(t, 3, row, over(a, 0, "dddd"))
			h.write(t, 3, row, over(h.cur[row], 2, "eeee"))
		}, want: nil},
	} {
		h := newHistory()
		if !tc.absent {
			h.load(row, a)
		}
		tc.run(h)
		if want := h.committed(h.l.Size())[row]; !bytes.Equal(want, tc.want) {
			t.Fatalf("%s: the history's own committed state is %q", tc.name, want)
		}
		states := h.durable(h.l.Size())[row]
		for i := range states {
			tab := newMemTable()
			if states[i] != nil {
				tab.rows[row.rid] = states[i]
			}
			if _, _, err := recoverChecked(t, cloneLog(h.l), map[uint32]Applier{0: tab}); err != nil {
				t.Fatalf("%s, durable state %d of %d: %v", tc.name, i, len(states), err)
			}
			if got := tab.rows[row.rid]; !bytes.Equal(got, tc.want) || (got == nil) != (tc.want == nil) {
				t.Errorf("%s, durable state %d of %d (%q): recovered %q, want %q", tc.name, i, len(states), states[i], got, tc.want)
			}
		}
	}
}
