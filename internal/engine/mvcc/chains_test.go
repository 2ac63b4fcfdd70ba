package mvcc

import (
	"math/rand"
	"testing"
)

// TestChainsMatchRetireAudit runs a seeded random schedule of overlapping
// transactions on four retire rings, quiesces the store, and checks the
// chain table against the audit the retire protocol implies: a key has a
// live chain exactly when some ring still holds the entry of its latest
// commit. (A chain is freed only by consuming that entry, and a chain no
// commit ever reached is removed by the abort that made it.) The audit is
// taken after the run, again after every ring has pruned once more, and
// after Reset, which must empty the tables and leave them reusable.
func TestChainsMatchRetireAudit(t *testing.T) {
	for _, ssi := range []bool{false, true} {
		s := NewStore()
		if ssi {
			s = NewSerializableStore()
		}
		const slots, keys = 4, 96
		var txns [slots]Txn
		var rets [slots]RetireSet
		var active [slots]bool
		latest := make(map[Key]uint64) // commit ts of each key's last writer
		key := func(i int) Key { return Key{Table: uint32(i % 3), Row: uint64(i)} }
		end := func(i int, commit bool) {
			tx := &txns[i]
			if !commit || (ssi && s.PreCommit(tx) != nil) {
				s.Abort(tx)
			} else {
				written := make([]Key, 0, len(tx.chains))
				for _, c := range tx.chains {
					written = append(written, c.k)
				}
				if ts := s.Commit(tx, &rets[i]); ts != 0 {
					for _, k := range written {
						latest[k] = ts
					}
				}
			}
			active[i] = false
		}
		audit := func(when string) {
			want := make(map[Key]bool)
			for i := range rets {
				for _, e := range rets[i].entries {
					if latest[e.k] == e.ts {
						want[e.k] = true
					}
				}
			}
			if n := s.Chains(); n != len(want) {
				t.Fatalf("ssi=%v %s: %d chains, the retire rings account for %d", ssi, when, n, len(want))
			}
			for k := range latest {
				if got := s.shardOf(k).get(k) != nil; got != want[k] {
					t.Fatalf("ssi=%v %s: key %v has chain %v, audit wants %v", ssi, when, k, got, want[k])
				}
			}
		}

		r := rand.New(rand.NewSource(1993))
		img := make([]byte, 16)
		for op := 0; op < 20000; op++ {
			i := r.Intn(slots)
			if !active[i] {
				s.Begin(&txns[i], &rets[i])
				active[i] = true
				continue
			}
			k := key(r.Intn(keys))
			switch x := r.Intn(10); {
			case x < 5:
				before := img
				if _, ok := latest[k]; !ok && x == 0 {
					before = nil // an insert
				}
				if err := s.Write(&txns[i], k, before); err != nil {
					end(i, false)
				}
			case x < 7:
				s.Read(&txns[i], k, true, img)
			case x < 9:
				end(i, true)
			default:
				end(i, false)
			}
		}
		for i := range active {
			if active[i] {
				end(i, true)
			}
		}
		audit("after the run")
		if len(latest) == 0 || s.Chains() == 0 {
			t.Fatalf("ssi=%v: the schedule left no chain to audit", ssi)
		}
		t.Logf("ssi=%v: %d keys written, %d chains live after the run", ssi, len(latest), s.Chains())
		for i := range txns {
			s.Begin(&txns[i], &rets[i])
			s.Abort(&txns[i])
		}
		audit("after a final prune of every ring")

		s.Reset()
		for i := range rets {
			rets[i].entries = rets[i].entries[:0]
		}
		if n := s.Chains(); n != 0 {
			t.Fatalf("ssi=%v: %d chains after Reset", ssi, n)
		}
		s.Begin(&txns[0], &rets[0])
		if err := s.Write(&txns[0], key(1), img); err != nil {
			t.Fatal(err)
		}
		s.Commit(&txns[0], &rets[0])
		if n := s.Chains(); n != 1 {
			t.Fatalf("ssi=%v: %d chains after one write past Reset, want 1", ssi, n)
		}
	}
}
