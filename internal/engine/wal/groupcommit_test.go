package wal

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

// countingHook counts forces, records the lengths they were asked to make
// durable, and optionally fails them.
type countingHook struct {
	mu     sync.Mutex
	forces int
	upto   []int
	fail   error // returned by every force while non-nil
	failN  int   // when > 0, only the next failN forces fail
}

func (h *countingHook) BeforeForce(n int) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.forces++
	h.upto = append(h.upto, n)
	if h.fail == nil {
		return nil
	}
	if h.failN > 0 {
		if h.failN--; h.failN == 0 {
			defer func() { h.fail = nil }()
		}
	}
	return h.fail
}

func (h *countingHook) heal() {
	h.mu.Lock()
	h.fail = nil
	h.mu.Unlock()
}

func (h *countingHook) calls() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.forces
}

// gatedHook blocks every force until the test lets it through, and says
// when one has arrived: the device wait made visible.
type gatedHook struct {
	arrived chan int      // receives n of each force as it reaches the device
	release chan struct{} // one token lets one force complete
}

func newGatedHook() *gatedHook {
	// Buffered so that a force the test does not watch never blocks on
	// reporting its arrival.
	return &gatedHook{arrived: make(chan int, 64), release: make(chan struct{}, 64)}
}

func (h *gatedHook) BeforeForce(n int) error {
	h.arrived <- n
	<-h.release
	return nil
}

func commitRec(txn uint64) Record { return Record{Txn: txn, Type: RecCommit} }

func preCommit(t *testing.T, l *Log, r Record) int64 {
	t.Helper()
	end, err := l.PreCommit(r)
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// TestPreCommitBuffersWaitDurableForces is the split itself: pre-commit
// puts the record in the buffer and forces nothing; the durability wait
// forces exactly up to what was buffered.
func TestPreCommitBuffersWaitDurableForces(t *testing.T) {
	for _, cfg := range []GroupConfig{{}, {MaxBatch: 64}} {
		l := New()
		hook := &countingHook{}
		l.SetFaultHook(hook)
		l.SetGroupCommit(cfg)
		ap(t, l, Record{Txn: 1, Type: RecUpdate, Table: 1, RID: 1, Before: []byte{0}, After: []byte{1}})
		end := preCommit(t, l, commitRec(1))
		if end != l.Size() || l.DurableSize() != 0 || l.Forces() != 0 || hook.calls() != 0 {
			t.Fatalf("cfg %+v: after pre-commit end %d size %d durable %d forces %d", cfg, end, l.Size(), l.DurableSize(), l.Forces())
		}
		if err := l.WaitDurable(end); err != nil {
			t.Fatal(err)
		}
		if l.DurableSize() != end || l.Forces() != 1 || l.Waits() != 1 {
			t.Errorf("cfg %+v: durable %d forces %d waits %d, want %d 1 1", cfg, l.DurableSize(), l.Forces(), l.Waits(), end)
		}
		if hook.upto[0] != int(end) {
			t.Errorf("cfg %+v: BeforeForce(%d), want the cumulative length %d", cfg, hook.upto[0], end)
		}
	}
}

// TestAppendsProceedDuringForceAndRideTheNext holds one committer's force
// at the device and checks that the log is open meanwhile — data records
// and two more pre-commits go in — and that, batching enabled, both of
// those ride ONE following force.
func TestAppendsProceedDuringForceAndRideTheNext(t *testing.T) {
	l := New()
	hook := newGatedHook()
	l.SetFaultHook(hook)
	l.SetGroupCommit(GroupConfig{MaxBatch: 64})

	end1 := preCommit(t, l, commitRec(1))
	done := make(chan error, 3)
	go func() { done <- l.WaitDurable(end1) }()
	if n := <-hook.arrived; n != int(end1) {
		t.Fatalf("first force covers %d bytes, want %d", n, end1)
	}

	// The force is in flight and the mutex is free.
	ap(t, l, Record{Txn: 2, Type: RecUpdate, Table: 1, RID: 2, Before: []byte{0}, After: []byte{2}})
	end2 := preCommit(t, l, commitRec(2))
	end3 := preCommit(t, l, commitRec(3))
	go func() { done <- l.WaitDurable(end2) }()
	go func() { done <- l.WaitDurable(end3) }()
	if l.DurableSize() != 0 {
		t.Fatalf("durable %d while the first force is still at the device", l.DurableSize())
	}

	hook.release <- struct{}{}
	if n := <-hook.arrived; n != int(end3) {
		t.Errorf("second force covers %d bytes, want everything buffered (%d)", n, end3)
	}
	hook.release <- struct{}{}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Error(err)
		}
	}
	if l.Forces() != 2 || l.Waits() != 3 || l.DurableSize() != end3 {
		t.Errorf("forces %d waits %d durable %d, want 2 3 %d", l.Forces(), l.Waits(), l.DurableSize(), end3)
	}
}

// TestUngroupedForcesOncePerCommitter pins the baseline: without batching
// every committer leads a force of its own, whoever got to the device
// first, so forces == waited-for records exactly at any concurrency.
func TestUngroupedForcesOncePerCommitter(t *testing.T) {
	const committers, each = 8, 50
	l := New()
	hook := &countingHook{}
	l.SetFaultHook(hook)
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				end, err := l.PreCommit(commitRec(uint64(i*each + j + 1)))
				if err == nil {
					err = l.WaitDurable(end)
				}
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if l.Forces() != committers*each || l.Waits() != committers*each {
		t.Errorf("forces %d waits %d, want %d each", l.Forces(), l.Waits(), committers*each)
	}
	for i := 1; i < len(hook.upto); i++ {
		if hook.upto[i] < hook.upto[i-1] {
			t.Fatalf("force %d made %d bytes durable after force %d made %d: the watermark went backwards", i, hook.upto[i], i-1, hook.upto[i-1])
		}
	}
}

// TestAckedCommitsAreDurable runs four committers against a device that
// takes a moment, batching on, and checks the acknowledgement rule at
// every ack: the record's end is inside the durable prefix.
func TestAckedCommitsAreDurable(t *testing.T) {
	const committers, each = 4, 200
	l := New()
	l.SetFaultHook(hookFunc(func(int) error { time.Sleep(20 * time.Microsecond); return nil }))
	l.SetGroupCommit(GroupConfig{MaxBatch: 64})
	var wg sync.WaitGroup
	for i := 0; i < committers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < each; j++ {
				txn := uint64(i*each + j + 1)
				if _, err := l.Append(Record{Txn: txn, Type: RecUpdate, Table: 1, RID: txn, Before: []byte{0}, After: []byte{1}}); err != nil {
					t.Error(err)
					return
				}
				end, err := l.PreCommit(commitRec(txn))
				if err == nil {
					err = l.WaitDurable(end)
				}
				if err != nil {
					t.Error(err)
					return
				}
				if d := l.DurableSize(); d < end {
					t.Errorf("txn %d acknowledged at end %d with %d bytes durable", txn, end, d)
					return
				}
			}
		}()
	}
	wg.Wait()
	if f, w := l.Forces(), l.Waits(); w != committers*each || f > w {
		t.Errorf("forces %d waits %d", f, w)
	} else {
		t.Logf("%d commits in %d forces", w, f)
	}
}

type hookFunc func(n int) error

func (f hookFunc) BeforeForce(n int) error { return f(n) }

// TestGroupCommitDegeneratesAtBatchOne checks MaxBatch <= 1 is the
// baseline through the forced Append too: one force per commit/abort
// record, each durable on return.
func TestGroupCommitDegeneratesAtBatchOne(t *testing.T) {
	for _, cfg := range []GroupConfig{{}, {MaxBatch: 1, MaxHold: time.Millisecond}} {
		l := New()
		l.SetGroupCommit(cfg)
		for txn := uint64(1); txn <= 5; txn++ {
			ap(t, l, Record{Txn: txn, Type: RecInsert, Table: 1, RID: txn, After: []byte{1}})
			ap(t, l, commitRec(txn))
			if l.DurableSize() != l.Size() {
				t.Errorf("cfg %+v: unforced tail after a forced append", cfg)
			}
		}
		if l.Forces() != 5 {
			t.Errorf("cfg %+v: Forces = %d, want 5", cfg, l.Forces())
		}
	}
}

// TestTransientForceErrorRetriedInPlace fails the device a few times under
// a pre-committed record: the waiter retries the force itself, the bytes
// never leave the buffer, and the commit is acknowledged with no error.
func TestTransientForceErrorRetriedInPlace(t *testing.T) {
	l := New()
	hook := &countingHook{fail: fmt.Errorf("blip: %w", storage.ErrTransientIO), failN: 3}
	l.SetFaultHook(hook)
	l.SetGroupCommit(GroupConfig{MaxBatch: 64})
	end := preCommit(t, l, commitRec(1))
	if err := l.WaitDurable(end); err != nil {
		t.Fatalf("transient errors surfaced: %v", err)
	}
	if hook.calls() != 4 || l.Forces() != 1 || l.DurableSize() != end {
		t.Errorf("device calls %d forces %d durable %d, want 4 1 %d", hook.calls(), l.Forces(), l.DurableSize(), end)
	}
	ap(t, l, commitRec(2)) // the log is healthy
}

// TestPersistentForceErrorLatches is the failure contract after
// pre-commit: the retries are bounded, then the log latches failed. The
// record stays buffered, every later commit, forced append and WAL-rule
// force fails with the same error even once the device has healed, and
// recovery — the machine restarting — clears the latch and finds the
// never-acknowledged commit, which is allowed to have survived.
func TestPersistentForceErrorLatches(t *testing.T) {
	l := New()
	hook := &countingHook{fail: fmt.Errorf("flaky: %w", storage.ErrTransientIO)}
	l.SetFaultHook(hook)
	l.SetGroupCommit(GroupConfig{MaxBatch: 64})
	ap(t, l, Record{Txn: 1, Type: RecInsert, Table: 1, RID: 1, After: []byte{7}})
	end := preCommit(t, l, commitRec(1))
	err := l.WaitDurable(end)
	if !errors.Is(err, storage.ErrTransientIO) {
		t.Fatalf("WaitDurable = %v, want the device's error", err)
	}
	if hook.calls() != 1+maxForceRetries {
		t.Errorf("device tried %d times, want %d", hook.calls(), 1+maxForceRetries)
	}
	if l.Size() != end || l.DurableSize() != 0 {
		t.Errorf("size %d durable %d: the record must stay buffered and unforced", l.Size(), l.DurableSize())
	}
	hook.heal()
	tried := hook.calls()
	if _, err2 := l.PreCommit(commitRec(2)); err2 == nil || err2.Error() != err.Error() {
		t.Errorf("PreCommit on a failed log = %v, want %v", err2, err)
	}
	if _, err2 := l.Append(commitRec(2)); err2 == nil {
		t.Error("forced Append succeeded on a failed log")
	}
	if err2 := l.ForceTo(l.Size()); err2 == nil {
		t.Error("WAL-rule ForceTo succeeded on a failed log")
	}
	if err2 := l.WaitPreCommitted(); err2 == nil {
		t.Error("a read-only commit was acknowledged over a failed log")
	}
	if hook.calls() != tried || l.Size() != end {
		t.Errorf("a failed log still reached the device (%d calls) or grew (%d bytes)", hook.calls()-tried, l.Size()-end)
	}

	tab := newMemTable()
	mustRecover(t, l, map[uint32]Applier{1: tab})
	if got := tab.rows[1]; len(got) != 1 || got[0] != 7 {
		t.Errorf("recovered row = %v, want the pre-committed insert", got)
	}
	ap(t, l, commitRec(3))
	if l.DurableSize() != l.Size() {
		t.Error("log not usable after recovery")
	}
}

// TestDeadDeviceLatchesAtOnce checks a crashed device is not retried and
// surfaces storage.ErrCrashed.
func TestDeadDeviceLatchesAtOnce(t *testing.T) {
	l := New()
	hook := &countingHook{fail: fmt.Errorf("dead: %w", storage.ErrCrashed)}
	l.SetFaultHook(hook)
	end := preCommit(t, l, commitRec(1))
	if err := l.WaitDurable(end); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("WaitDurable = %v, want ErrCrashed", err)
	}
	if hook.calls() != 1 {
		t.Errorf("dead device tried %d times", hook.calls())
	}
}

// fillTo appends one insert record sized so that the log ends at offset n,
// and returns where it starts and the record. Its header grows by a byte
// where the body's length needs one more uvarint byte, so an end no body
// length reaches with a one-byte rid is reached with a two-byte one.
func fillTo(t *testing.T, l *Log, n int) (int64, Record) {
	t.Helper()
	need := n - int(l.Size())
	body := make([]byte, max(need, 0))
	for _, rid := range []uint64{1, 1 << 7} {
		r := Record{Txn: 1, Type: RecInsert, Table: 2, RID: rid}
		for b := len(body); b >= 0 && b > need-maxHeader; b-- {
			if r.After = body[:b]; r.encodedLen() == need {
				return ap(t, l, r), r
			}
		}
	}
	t.Fatalf("no insert takes the %d bytes from %d to %d", need, l.Size(), n)
	return 0, Record{}
}

// TestFailedForcedAppendLeavesNoTrace is force-then-release's failure
// contract, which two-phase commit leans on: a vote or decision whose
// force failed must never turn up durable. The record was buffered while
// other transactions went on appending behind it, so it is voided where it
// lies: the log still parses, and recovery finds no decision and no
// prepared branch. Where it lies is the offset noted when it was buffered,
// not one worked back from the caller's images: a record carrying two
// images is logged as the few bytes that differ, and a record may straddle
// a segment boundary. The void must keep the record's length: its txn and
// gid take four and seven uvarint bytes, where a rewrite as some other
// record — of txn 0, of gid 0 — would be shorter and shift what follows.
func TestFailedForcedAppendLeavesNoTrace(t *testing.T) {
	const (
		txn = 1<<21 + 5
		gid = 0x1_0000_0000_0007
	)
	before := make([]byte, 64)
	after := append(make([]byte, 61), 7, 7, 7)
	for _, tc := range []struct {
		name  string
		rec   Record
		start int // log offset the forced record is buffered at, 0 for wherever
	}{
		{name: "commit", rec: Record{Txn: txn, Type: RecCommit, RID: gid}},
		{name: "prepare", rec: Record{Txn: txn, Type: RecPrepare, RID: gid}},
		{name: "commit carrying images that differ in three bytes", rec: Record{Txn: txn, Type: RecCommit, RID: gid, Before: before, After: after}},
		{name: "prepare straddling a segment boundary", rec: Record{Txn: txn, Type: RecPrepare, RID: gid}, start: segSize - 8},
	} {
		typ := tc.rec.Type
		l := New()
		hook := newGatedHook()
		l.SetFaultHook(hook)
		l.SetGroupCommit(GroupConfig{MaxBatch: 64})
		ap(t, l, Record{Txn: txn, Type: RecUpdate, Table: 1, RID: 9, Before: []byte{1}, After: []byte{2}})
		if tc.start > 0 {
			local := commitRec(4) // follows the filler
			fillTo(t, l, tc.start-local.encodedLen())
		}

		// A local commit is at the device when the decision arrives, so the
		// decision waits behind it — and the device then dies.
		end := preCommit(t, l, commitRec(4))
		local := make(chan error, 1)
		go func() { local <- l.WaitDurable(end) }()
		<-hook.arrived
		forced := make(chan error, 1)
		go func() {
			_, err := l.Append(tc.rec)
			forced <- err
		}()
		for l.Size() == end { // until the forced record is buffered
			time.Sleep(50 * time.Microsecond)
		}
		if tc.start > 0 && (end != int64(tc.start) || l.Size() <= segSize) {
			t.Fatalf("%s: forced record buffered at [%d,%d)", tc.name, end, l.Size())
		}
		ap(t, l, Record{Txn: 6, Type: RecUpdate, Table: 1, RID: 10, Before: []byte{3}, After: []byte{4}})
		l.SetFaultHook(hookFunc(func(int) error { return fmt.Errorf("dead: %w", storage.ErrCrashed) }))
		hook.release <- struct{}{}
		if err := <-local; err != nil {
			t.Fatalf("%s: the force already at the device failed: %v", tc.name, err)
		}
		if err := <-forced; !errors.Is(err, storage.ErrCrashed) {
			t.Fatalf("%s: forced append = %v, want ErrCrashed", tc.name, err)
		}

		recs, _, err := l.Scan()
		if err != nil {
			t.Fatalf("%s: log does not parse after the void: %v", tc.name, err)
		}
		for _, r := range recs {
			if r.Type == typ && r.Txn == txn {
				t.Errorf("%s: unacknowledged record survived in the buffer", tc.name)
			}
		}
		if recs[len(recs)-1].Txn != 6 {
			t.Errorf("%s: the record appended behind the voided one moved", tc.name)
		}
		tab := newMemTable()
		tab.rows[9], tab.rows[10] = []byte{2}, []byte{4}
		_, dist, err := RecoverDist(l, map[uint32]Applier{1: tab, 2: newMemTable()})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := dist.Committed[gid]; ok || len(dist.InDoubt) != 0 {
			t.Errorf("%s: recovery found committed gids %v, in-doubt %v", tc.name, dist.Committed, dist.InDoubt)
		}
		if got := tab.rows[9]; len(got) != 1 || got[0] != 1 {
			t.Errorf("%s: row 9 = %v, want the before-byte", tc.name, got)
		}
	}
}

// TestCrashTailTearsAcrossSegments: records are laid end to end over the
// segments, so an unforced record may straddle a boundary, and power loss
// must be able to keep any prefix of it and tear any byte of that prefix,
// in either segment. Whatever happens the log parses up to the damage, the
// forced prefix survives, and a straddling record that survives whole reads
// back as it was written.
func TestCrashTailTearsAcrossSegments(t *testing.T) {
	before := make([]byte, 300)
	after := make([]byte, 300)
	for i := range after {
		after[i] = byte(i + 1)
	}
	var keptPast, keptShort, whole int
	for seed := uint64(1); seed <= 200; seed++ {
		l := New()
		commit := commitRec(1)
		fillTo(t, l, segSize-100-commit.encodedLen())
		ap(t, l, commit)
		forced := l.DurableSize()
		up := Record{Txn: 2, Type: RecUpdate, Table: 1, RID: 5, Before: before, After: after}
		ap(t, l, up)
		if forced != segSize-100 || l.Size() != forced+int64(up.encodedLen()) {
			t.Fatalf("straddling record at [%d,%d)", forced, l.Size())
		}
		preCommit(t, l, commitRec(2))
		l.CrashTail(rng.New(seed))
		if l.Size() > segSize {
			keptPast++
		} else {
			keptShort++
		}
		recs, valid, _ := l.Scan()
		if valid < forced || len(recs) < 2 || recs[1].Type != RecCommit {
			t.Fatalf("seed %d: forced prefix lost: %d valid bytes, %d records", seed, valid, len(recs))
		}
		if len(recs) > 2 {
			whole++
			if r := recs[2]; r.Off != 0 || !bytes.Equal(r.Before, before) || !bytes.Equal(r.After, after) {
				t.Fatalf("seed %d: straddling record read back as %d+%x/%x", seed, r.Off, r.Before, r.After)
			}
		}
		// The page may hold the update only if its record reached the log.
		tab := newMemTable()
		tab.rows[5] = [][]byte{before, after}[len(recs)/3]
		if _, _, err := RecoverDist(l, map[uint32]Applier{1: tab, 2: newMemTable()}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if want := [][]byte{before, after}[len(recs)/4]; !bytes.Equal(tab.rows[5], want) {
			t.Fatalf("seed %d: %d records survived, row 5 recovered as %x", seed, len(recs), tab.rows[5])
		}
	}
	if keptPast == 0 || keptShort == 0 || whole == 0 || whole == 200 {
		t.Errorf("tails kept past the boundary %d times, short of it %d, the straddling record whole %d: every case must occur",
			keptPast, keptShort, whole)
	}
}

// TestWaitPreCommittedFollowsNeverLeads is the read-only rule: with
// nothing pre-committed it returns at once and touches no device; with a
// writer's record pending it returns only once that writer's own force has
// made the record durable.
func TestWaitPreCommittedFollowsNeverLeads(t *testing.T) {
	l := New()
	hook := newGatedHook()
	l.SetFaultHook(hook)
	l.SetGroupCommit(GroupConfig{MaxBatch: 64})
	ap(t, l, Record{Txn: 1, Type: RecUpdate, Table: 1, RID: 1, Before: []byte{0}, After: []byte{1}})
	if err := l.WaitPreCommitted(); err != nil {
		t.Fatal(err)
	}
	if l.Forces() != 0 || len(hook.arrived) != 0 {
		t.Fatal("a read-only commit forced the log with nothing pre-committed")
	}

	end := preCommit(t, l, commitRec(1))
	var acked atomic.Bool
	reader := make(chan error, 1)
	go func() {
		err := l.WaitPreCommitted()
		acked.Store(true)
		reader <- err
	}()
	time.Sleep(2 * time.Millisecond)
	if acked.Load() || len(hook.arrived) != 0 {
		t.Fatal("the reader was acknowledged, or forced, before the writer it read from")
	}
	writer := make(chan error, 1)
	go func() { writer <- l.WaitDurable(end) }()
	<-hook.arrived
	if acked.Load() {
		t.Fatal("the reader was acknowledged while the writer's force was at the device")
	}
	hook.release <- struct{}{}
	if err := <-writer; err != nil {
		t.Fatal(err)
	}
	if err := <-reader; err != nil {
		t.Fatal(err)
	}
	if l.Forces() != 1 {
		t.Errorf("forces = %d, want the writer's one", l.Forces())
	}
}

// TestWALRuleForceSharesTheDevice checks the buffer manager's force waits
// for a commit force in flight instead of racing it, then covers the rest.
func TestWALRuleForceSharesTheDevice(t *testing.T) {
	l := New()
	hook := newGatedHook()
	l.SetFaultHook(hook)
	end := preCommit(t, l, commitRec(1))
	commit := make(chan error, 1)
	go func() { commit <- l.WaitDurable(end) }()
	<-hook.arrived
	ap(t, l, Record{Txn: 2, Type: RecUpdate, Table: 1, RID: 2, Before: []byte{0}, After: []byte{2}})
	steal := make(chan error, 1)
	go func() { steal <- l.ForceTo(l.Size()) }()
	time.Sleep(time.Millisecond)
	if len(hook.arrived) != 0 {
		t.Fatal("two forces at the device at once")
	}
	hook.release <- struct{}{}
	if n := <-hook.arrived; n != int(l.Size()) {
		t.Errorf("WAL-rule force covers %d, want %d", n, l.Size())
	}
	hook.release <- struct{}{}
	if err := <-commit; err != nil {
		t.Fatal(err)
	}
	if err := <-steal; err != nil {
		t.Fatal(err)
	}
	if l.Forces() != 1 || l.Syncs() != 1 || l.DurableSize() != l.Size() {
		t.Errorf("forces %d syncs %d durable %d of %d", l.Forces(), l.Syncs(), l.DurableSize(), l.Size())
	}
}

// TestPreCommittedRecordMaySurviveCrashTail damages the unforced tail
// behind acknowledged commits: every acknowledged one is inside the prefix
// recovery keeps, and the one pre-committed but never forced may or may not
// be — either way the log parses up to the damage.
func TestPreCommittedRecordMaySurviveCrashTail(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		l := New()
		l.SetGroupCommit(GroupConfig{MaxBatch: 4})
		for txn := uint64(1); txn <= 6; txn++ {
			ap(t, l, Record{Txn: txn, Type: RecInsert, Table: 1, RID: txn, After: []byte{byte(txn)}})
			ap(t, l, commitRec(txn))
		}
		ap(t, l, Record{Txn: 99, Type: RecInsert, Table: 1, RID: 99, After: []byte{9}})
		preCommit(t, l, commitRec(99)) // never forced, never acknowledged
		l.CrashTail(rng.New(seed))
		recs, _, _ := l.Scan()
		committed := map[uint64]bool{}
		for _, r := range recs {
			if r.Type == RecCommit {
				committed[r.Txn] = true
			}
		}
		for txn := uint64(1); txn <= 6; txn++ {
			if !committed[txn] {
				t.Errorf("seed %d: acknowledged commit %d lost to tail damage", seed, txn)
			}
		}
	}
}
