package shard

import (
	"errors"
	"fmt"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

// RecoverShard brings a killed shard back: the device is revived, the
// power loss is applied (volatile buffers lost, unforced log tail
// damaged by r), the shard recovers from its WAL, and every in-doubt
// branch is resolved against its coordinator. Callers must guarantee no
// concurrent traffic targets the shard. The shard serves again only once
// no branch is left in doubt: an error from the resolution phase leaves
// it down, its traffic shed with ErrShardDown, until ResolveInDoubtAll
// settles the rest. A failed power loss or log recovery leaves the device
// dead for the next RecoverShard.
func (c *Cluster) RecoverShard(id int, r *rng.RNG) error {
	s := c.shards[id]
	s.Inj.Revive()
	if err := s.DB.CrashPowerLoss(r); err != nil {
		s.Inj.Kill()
		return fmt.Errorf("shard %d power loss: %w", id, err)
	}
	if err := s.DB.Recover(); err != nil {
		s.Inj.Kill()
		return fmt.Errorf("shard %d recovery: %w", id, err)
	}
	s.inDoubt.Add(int64(len(s.DB.InDoubt())))
	if err := c.resolveInDoubt(id); err != nil {
		return err
	}
	s.down.Store(false)
	return nil
}

// ResolveInDoubtAll resolves the in-doubt branches of every shard that has
// recovered but is held down by them (its coordinator was dead when it
// recovered), and brings each such shard back into service once none is
// left.
func (c *Cluster) ResolveInDoubtAll() error {
	for _, s := range c.shards {
		if !s.Down() || s.Inj.Dead() {
			continue
		}
		if err := c.resolveInDoubt(s.ID); err != nil {
			return err
		}
		s.down.Store(false)
	}
	return nil
}

// resolveInDoubt settles shard id's in-doubt branches. For each branch
// the coordinator (encoded in the gid) is asked for the decision; no
// recorded decision means presumed abort. A coordinator whose device is
// dead cannot answer, and nothing revives it while this runs, so the
// branch stays in doubt and resolution stops with an error. The kill hook
// fires before each resolution so torture can crash the shard inside this
// window too.
func (c *Cluster) resolveInDoubt(id int) error {
	s := c.shards[id]
	for _, idt := range s.DB.InDoubt() {
		coord := CoordinatorOf(idt.GID)
		if coord < 0 || coord >= len(c.shards) {
			return fmt.Errorf("shard %d: in-doubt gid %#x names invalid coordinator %d",
				id, idt.GID, coord)
		}
		// A coordinator that recovered, even one held down by branches of
		// its own, has rebuilt its outcome map from its durable log
		// (absent = presumed abort).
		cs := c.shards[coord]
		if cs.Inj.Dead() {
			return fmt.Errorf("shard %d: gid %#x in doubt, coordinator %d unreachable: %w",
				id, idt.GID, coord, ErrCoordinatorDown)
		}
		committed, _ := cs.DB.GIDOutcome(idt.GID)
		c.fireHook(KillDuringResolve, idt.GID)
		if err := s.DB.ResolveInDoubt(idt.GID, committed); err != nil {
			if errors.Is(err, storage.ErrCrashed) {
				// Killed during resolution: the branch stays in doubt (or,
				// decided-abort, is idempotently re-resolved next recovery).
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
