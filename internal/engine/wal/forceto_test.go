package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

func dataRec(txn, rid uint64) Record {
	return Record{Txn: txn, Type: RecUpdate, Table: 1, RID: rid, Before: []byte{0}, After: []byte{byte(rid)}}
}

// returns runs fn and fails the test if it has not come back within a few
// seconds: a ForceTo that spins never does.
func returns(t *testing.T, what string, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
		return nil
	}
}

// TestForceToInsideDurablePrefixIsFree is the point of the offset: what the
// page needs is on the device already, so nothing happens — no device call,
// no count, and no error even once the log has latched failed.
func TestForceToInsideDurablePrefixIsFree(t *testing.T) {
	l := New()
	hook := &countingHook{}
	l.SetFaultHook(hook)
	l.SetGroupCommit(GroupConfig{MaxBatch: 64})
	ap(t, l, dataRec(1, 1))
	ap(t, l, commitRec(1))
	durable := l.DurableSize()
	if durable != l.Size() || hook.calls() != 1 {
		t.Fatalf("durable %d of %d after %d forces", durable, l.Size(), hook.calls())
	}
	ap(t, l, dataRec(2, 2)) // a tail the cold page has nothing to do with
	for _, off := range []int64{0, 1, durable} {
		if err := l.ForceTo(off); err != nil {
			t.Fatalf("ForceTo(%d) = %v", off, err)
		}
	}
	if hook.calls() != 1 || l.Syncs() != 0 || l.DurableSize() != durable {
		t.Errorf("device calls %d syncs %d durable %d, want 1 0 %d", hook.calls(), l.Syncs(), l.DurableSize(), durable)
	}

	hook.fail = fmt.Errorf("dead: %w", storage.ErrCrashed)
	latched := l.WaitDurable(preCommit(t, l, commitRec(2)))
	if !errors.Is(latched, storage.ErrCrashed) {
		t.Fatalf("WaitDurable on a dead device = %v", latched)
	}
	tried := hook.calls()
	if err := l.ForceTo(durable); err != nil {
		t.Errorf("ForceTo inside the durable prefix of a failed log = %v, want nil", err)
	}
	if err := l.ForceTo(durable + 1); err == nil || err.Error() != latched.Error() {
		t.Errorf("ForceTo past the durable prefix of a failed log = %v, want %v", err, latched)
	}
	if hook.calls() != tried {
		t.Errorf("a failed log reached the device %d more times", hook.calls()-tried)
	}
}

// TestForceToPastDurablePrefixLeadsOneForce checks the other side: one
// force, of everything buffered (so BeforeForce's n is the log's size, not
// the offset asked for), counted as a WAL-rule force and not a committer's.
func TestForceToPastDurablePrefixLeadsOneForce(t *testing.T) {
	l := New()
	hook := &countingHook{}
	l.SetFaultHook(hook)
	ap(t, l, dataRec(1, 1))
	off := l.Size()
	ap(t, l, dataRec(1, 2))
	if err := l.ForceTo(off); err != nil {
		t.Fatal(err)
	}
	if hook.calls() != 1 || hook.upto[0] != int(l.Size()) {
		t.Errorf("device calls %d upto %v, want one force of all %d bytes", hook.calls(), hook.upto, l.Size())
	}
	if l.Syncs() != 1 || l.Forces() != 0 || l.Waits() != 0 || l.DurableSize() != l.Size() {
		t.Errorf("syncs %d forces %d waits %d durable %d of %d", l.Syncs(), l.Forces(), l.Waits(), l.DurableSize(), l.Size())
	}
	if err := l.ForceTo(l.Size()); err != nil || hook.calls() != 1 {
		t.Errorf("ForceTo of a durable log = %v after %d device calls", err, hook.calls())
	}
}

// TestForceToRidesForceInFlight checks a WAL-rule force whose offset a
// committer's force in flight covers waits that force out and issues none of
// its own.
func TestForceToRidesForceInFlight(t *testing.T) {
	l := New()
	hook := newGatedHook()
	l.SetFaultHook(hook)
	l.SetGroupCommit(GroupConfig{MaxBatch: 64})
	ap(t, l, dataRec(1, 1))
	off := l.Size()
	end := preCommit(t, l, commitRec(1))
	commit := make(chan error, 1)
	go func() { commit <- l.WaitDurable(end) }()
	<-hook.arrived
	steal := make(chan error, 1)
	go func() { steal <- l.ForceTo(off) }()
	select {
	case err := <-steal:
		t.Fatalf("ForceTo returned %v while the force covering it was at the device", err)
	case <-time.After(2 * time.Millisecond):
	}
	hook.release <- struct{}{}
	if err := <-commit; err != nil {
		t.Fatal(err)
	}
	if err := <-steal; err != nil {
		t.Fatal(err)
	}
	if len(hook.arrived) != 0 || l.Forces() != 1 || l.Syncs() != 0 {
		t.Errorf("%d more device calls, forces %d syncs %d: want the committer's one force", len(hook.arrived), l.Forces(), l.Syncs())
	}
}

// TestForceToClampsToSize checks an offset past the end of the log means the
// whole log and terminates: one noted in a frame before a crash or recovery
// cut the log's tail is such an offset.
func TestForceToClampsToSize(t *testing.T) {
	l := New()
	hook := &countingHook{}
	l.SetFaultHook(hook)
	ap(t, l, dataRec(1, 1))
	if err := returns(t, "ForceTo past the end", func() error { return l.ForceTo(l.Size() + 1000) }); err != nil {
		t.Fatal(err)
	}
	if hook.calls() != 1 || l.DurableSize() != l.Size() {
		t.Errorf("device calls %d durable %d of %d", hook.calls(), l.DurableSize(), l.Size())
	}

	// A power loss that drops the whole unforced tail.
	ap(t, l, commitRec(1))
	ap(t, l, dataRec(2, 2))
	noted := l.Size()
	for seed := uint64(1); l.Size() == noted; seed++ {
		c := cloneLog(l)
		if c.CrashTail(rng.New(seed)); c.Size() < noted {
			l = c
		}
	}
	l.SetFaultHook(hook)
	if err := returns(t, "ForceTo after CrashTail", func() error { return l.ForceTo(noted) }); err != nil {
		t.Fatal(err)
	}

	// Recovery cutting a damaged tail.
	ap(t, l, dataRec(3, 3))
	noted = l.Size()
	flip(l, int(noted)-1, 1)
	if st := mustRecover(t, l, map[uint32]Applier{1: newMemTable()}); st.TruncatedBytes == 0 {
		t.Fatal("recovery kept the damaged record")
	}
	if err := returns(t, "ForceTo after recovery", func() error { return l.ForceTo(noted) }); err != nil {
		t.Fatal(err)
	}
	if l.DurableSize() != l.Size() || l.Size() >= noted {
		t.Errorf("durable %d size %d noted %d", l.DurableSize(), l.Size(), noted)
	}
}

// TestForceLengthsNeverDecrease interleaves committers and WAL-rule forces,
// with and without batching, and checks the device sees a durable length
// that only grows: ForceTo forces everything buffered, never just its offset.
func TestForceLengthsNeverDecrease(t *testing.T) {
	for _, cfg := range []GroupConfig{{}, {MaxBatch: 64}} {
		l := New()
		hook := &countingHook{}
		l.SetFaultHook(hook)
		l.SetGroupCommit(cfg)
		var wg sync.WaitGroup
		for w := uint64(0); w < 4; w++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				for i := uint64(0); i < 200; i++ {
					txn := w*1000 + i + 1
					if _, err := l.Append(dataRec(txn, i)); err != nil {
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
				}
			}()
			go func() {
				defer wg.Done()
				r := rng.New(w + 1)
				for i := 0; i < 200; i++ {
					off := r.Int63n(l.Size() + 1)
					if err := l.ForceTo(off); err != nil {
						t.Error(err)
						return
					}
					if d := l.DurableSize(); d < off {
						t.Errorf("ForceTo(%d) returned with %d durable", off, d)
						return
					}
				}
			}()
		}
		wg.Wait()
		for i := 1; i < len(hook.upto); i++ {
			if hook.upto[i] < hook.upto[i-1] {
				t.Fatalf("cfg %+v: force %d asked for %d bytes after one of %d", cfg, i, hook.upto[i], hook.upto[i-1])
			}
		}
		if int64(hook.calls()) != l.Forces()+l.Syncs() {
			t.Errorf("cfg %+v: %d device calls, %d commit + %d WAL-rule forces", cfg, hook.calls(), l.Forces(), l.Syncs())
		}
	}
}
