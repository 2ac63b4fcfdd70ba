package shard

import (
	"errors"
	"fmt"
	"time"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

// resolveRetries bounds how long a recovering participant waits for its
// coordinator before giving up (leaving the branch in doubt, locks held,
// for a later ResolveInDoubt pass once the coordinator is back).
const resolveRetries = 10

// RecoverShard brings a killed shard back: the device is revived, the
// power loss is applied (volatile buffers lost, unforced log tail
// damaged by r), the shard recovers from its WAL, and every in-doubt
// branch is resolved against its coordinator. Callers must guarantee no
// concurrent traffic targets the shard. An error from the resolution
// phase leaves the unresolved branches in doubt — with their row locks
// held — to be retried by another RecoverShard or ResolveInDoubtAll
// call; the shard is otherwise recovered and serving.
func (c *Cluster) RecoverShard(id int, r *rng.RNG) error {
	s := c.shards[id]
	s.Inj.Revive()
	if err := s.DB.CrashPowerLoss(r); err != nil {
		return fmt.Errorf("shard %d power loss: %w", id, err)
	}
	if err := s.DB.Recover(); err != nil {
		return fmt.Errorf("shard %d recovery: %w", id, err)
	}
	s.down.Store(false)
	s.inDoubt.Add(int64(len(s.DB.InDoubt())))
	return c.resolveInDoubt(id)
}

// ResolveInDoubtAll retries in-doubt resolution on every live shard
// (used after reviving a coordinator whose participants gave up waiting).
func (c *Cluster) ResolveInDoubtAll() error {
	for _, s := range c.shards {
		if s.Down() {
			continue
		}
		if err := c.resolveInDoubt(s.ID); err != nil {
			return err
		}
	}
	return nil
}

// resolveInDoubt settles shard id's in-doubt branches. For each branch
// the coordinator (encoded in the gid) is queried for the decision with
// bounded retry/backoff while it is down; no recorded decision means
// presumed abort. The kill hook fires before each resolution so torture
// can crash the shard inside this window too.
func (c *Cluster) resolveInDoubt(id int) error {
	s := c.shards[id]
	for _, idt := range s.DB.InDoubt() {
		coord := CoordinatorOf(idt.GID)
		if coord < 0 || coord >= len(c.shards) {
			return fmt.Errorf("shard %d: in-doubt gid %#x names invalid coordinator %d",
				id, idt.GID, coord)
		}
		committed := false
		if coord == id {
			// Own coordinator: the outcome map was just rebuilt from the
			// durable log (absent = presumed abort).
			committed, _ = s.DB.GIDOutcome(idt.GID)
		} else {
			cs := c.shards[coord]
			resolved := false
			for attempt := 1; attempt <= resolveRetries; attempt++ {
				if !cs.Down() {
					committed, _ = cs.DB.GIDOutcome(idt.GID)
					resolved = true
					break
				}
				forceBackoff(attempt)
			}
			if !resolved {
				return fmt.Errorf("shard %d: gid %#x in doubt, coordinator %d unreachable: %w",
					id, idt.GID, coord, ErrCoordinatorDown)
			}
		}
		c.fireHook(KillDuringResolve, idt.GID)
		if err := s.DB.ResolveInDoubt(idt.GID, committed); err != nil {
			if errors.Is(err, storage.ErrCrashed) {
				// Killed during resolution: the branch stays in doubt (or,
				// decided-abort, is idempotently re-resolved next recovery).
				s.down.Store(true)
				return fmt.Errorf("shard %d died resolving gid %#x: %w", id, idt.GID, ErrShardDown)
			}
			return fmt.Errorf("shard %d resolving gid %#x: %w", id, idt.GID, err)
		}
		if committed {
			s.resolvedCommit.Add(1)
		} else {
			s.resolvedAbort.Add(1)
		}
	}
	return nil
}

// Quiesce waits for a bounded time until no shard holds pending
// participant commits, retrying ResolvePending. Used by harnesses before
// verification; returns the number of still-pending commits (0 = clean).
func (c *Cluster) Quiesce(limit time.Duration) int {
	deadline := time.Now().Add(limit)
	for {
		n := c.ResolvePending()
		if n == 0 || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}
