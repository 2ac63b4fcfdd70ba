// Package shard runs the engine as a warehouse-sharded cluster: one
// db.DB instance per warehouse group (a "node" in the paper's Section
// 5.3 sense), a deterministic router that classifies transactions
// local/remote per the benchmark mix, and a two-phase-commit coordinator
// layered on each shard's WAL. The load comes from the engine's one TPC-C
// terminal, db.Runner, which drives the router as a db.System. The
// cross-shard traffic the router measures is cross-validated against the
// Appendix A model (model.DistConfig) by package xval.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/fault"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

// ErrShardDown reports that a shard this transaction needs is dead. It is
// the cluster's db.ErrUnavailable: the terminal sheds a transaction failing
// with it (counted, not retried), and local traffic on the surviving
// shards keeps committing.
var ErrShardDown = fmt.Errorf("shard: required shard is down: %w", db.ErrUnavailable)

// ErrCoordinatorDown reports the transaction's own home shard died
// mid-flight; under presumed abort the transaction is globally aborted
// (its decision record never became durable).
var ErrCoordinatorDown = fmt.Errorf("shard: coordinator died before deciding: %w", ErrShardDown)

// Config sizes a cluster.
type Config struct {
	// Shards is the node count N (>= 1).
	Shards int
	// WarehousesPerShard is the per-node warehouse group size (>= 1).
	WarehousesPerShard int
	// PageSize and BufferPages size each shard's instance.
	PageSize    int
	BufferPages int
	// LockStripes and BufferPartitions are passed through to each shard's
	// db.Config (0 keeps that layer's default).
	LockStripes      int
	BufferPartitions int
	// CC selects each shard's concurrency-control mode (zero value is
	// 2PL). Snapshot scope is per shard: cross-shard branches run 2PC
	// over whatever mode each participant uses locally.
	CC db.CCMode
	// Seed loads every shard. All shards load the SAME seed: warehouse
	// contents are per-shard anyway, and the Item relation comes out
	// bit-identical everywhere — the paper's replicated-Item layout
	// (Table 6) on symmetric nodes.
	Seed uint64
	// LockWaitTimeout bounds row-lock waits on every shard. Required
	// (>0) when Shards > 1: a deadlock cycle spanning two shards is
	// invisible to both local detectors and only a timeout breaks it.
	LockWaitTimeout time.Duration
	// GroupCommit configures per-shard WAL batching (zero = off).
	GroupCommit wal.GroupConfig
	// Faults sets steady-state fault probabilities on every shard's
	// device (zero = fault-free).
	Faults fault.Config
}

// DefaultConfig returns a small symmetric cluster.
func DefaultConfig(shards int) Config {
	return Config{
		Shards:             shards,
		WarehousesPerShard: 1,
		PageSize:           4096,
		BufferPages:        4096,
		Seed:               1,
		LockWaitTimeout:    50 * time.Millisecond,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("shard: shards must be >= 1")
	}
	if c.WarehousesPerShard < 1 {
		return fmt.Errorf("shard: warehouses per shard must be >= 1")
	}
	if c.Shards > 1 && c.LockWaitTimeout <= 0 {
		return fmt.Errorf("shard: multi-shard clusters need a lock wait timeout (cross-shard deadlocks are invisible to per-shard detection)")
	}
	return nil
}

// Stats counts one shard's distributed-execution outcomes. All fields
// are written with atomics; read them via Shard.Stats.
type Stats struct {
	// LocalCommits counts single-shard fast-path transactions.
	LocalCommits int64
	// DistCommits counts globally committed 2PC transactions this shard
	// coordinated; ParticipantCommits counts branches it served.
	DistCommits        int64
	ParticipantCommits int64
	// DistAborts counts 2PC transactions this shard coordinated that
	// aborted (deadlock/timeout victims and participant failures).
	DistAborts int64
	// Sheds counts transactions refused with ErrShardDown because this
	// shard (as coordinator) found a required participant dead;
	// DownSheds counts transactions refused because this shard itself
	// was dead when chosen as home.
	Sheds     int64
	DownSheds int64
	// Forsaken counts branches abandoned on this shard's dead device
	// (their fate is settled by recovery from the durable log).
	Forsaken int64
	// InDoubt counts branches surfaced prepared-but-undecided at
	// recovery; ResolvedCommit/ResolvedAbort count their resolutions.
	InDoubt        int64
	ResolvedCommit int64
	ResolvedAbort  int64
}

// Shard is one node: a db.DB over its own fault-injected device.
type Shard struct {
	ID  int
	DB  *db.DB
	Inj *fault.Injector

	disk *storage.MemDisk
	down atomic.Bool

	localCommits       atomic.Int64
	distCommits        atomic.Int64
	participantCommits atomic.Int64
	distAborts         atomic.Int64
	sheds              atomic.Int64
	downSheds          atomic.Int64
	forsaken           atomic.Int64
	inDoubt            atomic.Int64
	resolvedCommit     atomic.Int64
	resolvedAbort      atomic.Int64
}

// Down reports whether the shard is currently dead.
func (s *Shard) Down() bool { return s.down.Load() }

// Stats snapshots the shard's counters.
func (s *Shard) Stats() Stats {
	return Stats{
		LocalCommits:       s.localCommits.Load(),
		DistCommits:        s.distCommits.Load(),
		ParticipantCommits: s.participantCommits.Load(),
		DistAborts:         s.distAborts.Load(),
		Sheds:              s.sheds.Load(),
		DownSheds:          s.downSheds.Load(),
		Forsaken:           s.forsaken.Load(),
		InDoubt:            s.inDoubt.Load(),
		ResolvedCommit:     s.resolvedCommit.Load(),
		ResolvedAbort:      s.resolvedAbort.Load(),
	}
}

// KillPoint names a protocol step at which a kill hook fires; the
// torture campaign kills shards at these points to exercise every
// in-doubt window of the protocol.
type KillPoint = fault.ShardKillPoint

// Cluster is a set of shards plus the 2PC coordinator logic.
type Cluster struct {
	cfg    Config
	shards []*Shard
	gidSeq atomic.Uint64

	// killHook, when set, fires at each KillPoint of every distributed
	// commit and each in-doubt resolution (torture uses it to kill
	// shards inside the protocol's windows). Must be safe for
	// concurrent use.
	killHook atomic.Pointer[func(p KillPoint, gid uint64)]

	pendMu  sync.Mutex
	pending []part

	// xval is where the router counts Appendix A (see XvalCounters).
	xval XvalCounters
}

// Open builds the cluster: every shard gets its own device, injector,
// WAL, and lock manager, and loads the same seed.
func Open(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{cfg: cfg}
	for i := 0; i < cfg.Shards; i++ {
		disk := storage.NewMemDisk()
		inj := fault.New(disk, cfg.Seed+uint64(i)*7919)
		inj.SetConfig(cfg.Faults)
		d, err := db.OpenWith(db.Config{
			Warehouses:       cfg.WarehousesPerShard,
			PageSize:         cfg.PageSize,
			BufferPages:      cfg.BufferPages,
			LockStripes:      cfg.LockStripes,
			BufferPartitions: cfg.BufferPartitions,
			CC:               cfg.CC,
		}, db.Options{
			Disk:            inj,
			LogHook:         inj,
			GroupCommit:     cfg.GroupCommit,
			LockWaitTimeout: cfg.LockWaitTimeout,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if err := d.Load(cfg.Seed); err != nil {
			return nil, fmt.Errorf("shard %d load: %w", i, err)
		}
		if err := d.Checkpoint(); err != nil {
			return nil, fmt.Errorf("shard %d checkpoint: %w", i, err)
		}
		c.shards = append(c.shards, &Shard{ID: i, DB: d, Inj: inj, disk: disk})
	}
	return c, nil
}

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// Shards returns the cluster's shards (stable slice; do not mutate).
func (c *Cluster) Shards() []*Shard { return c.shards }

// Shard returns shard i.
func (c *Cluster) Shard(i int) *Shard { return c.shards[i] }

// Warehouses returns the global warehouse count.
func (c *Cluster) Warehouses() int { return c.cfg.Shards * c.cfg.WarehousesPerShard }

// ShardOf maps a global warehouse id to its shard.
func (c *Cluster) ShardOf(globalW int64) int {
	return int(globalW) / c.cfg.WarehousesPerShard
}

// LocalW maps a global warehouse id to the shard-local id.
func (c *Cluster) LocalW(globalW int64) int64 {
	return globalW % int64(c.cfg.WarehousesPerShard)
}

// GlobalW maps (shard, local warehouse) to the global id.
func (c *Cluster) GlobalW(shard int, localW int64) int64 {
	return int64(shard)*int64(c.cfg.WarehousesPerShard) + localW
}

// SetKillHook installs (or clears, with nil) the torture kill hook.
func (c *Cluster) SetKillHook(h func(p KillPoint, gid uint64)) {
	if h == nil {
		c.killHook.Store(nil)
		return
	}
	c.killHook.Store(&h)
}

func (c *Cluster) fireHook(p KillPoint, gid uint64) {
	if h := c.killHook.Load(); h != nil {
		(*h)(p, gid)
	}
}

// KillShard kills shard id's device: every subsequent read, write, and
// log force on it fails with storage.ErrCrashed until RecoverShard.
func (c *Cluster) KillShard(id int) {
	s := c.shards[id]
	s.Inj.Kill()
	s.down.Store(true)
}

// markDownOnCrash flags the shard dead when an operation surfaced
// storage.ErrCrashed (the device was killed mid-operation).
func (c *Cluster) markDownOnCrash(id int, err error) {
	if errors.Is(err, storage.ErrCrashed) {
		c.shards[id].down.Store(true)
	}
}

// CheckAll runs the TPC-C consistency checks on every live shard.
func (c *Cluster) CheckAll() error {
	for _, s := range c.shards {
		if s.Down() {
			continue
		}
		if err := s.DB.CheckConsistency(); err != nil {
			return fmt.Errorf("shard %d: %w", s.ID, err)
		}
	}
	return nil
}

// StockYTDTotal sums stock s_ytd over every shard; OrderLineQtyTotal
// sums ol_quantity. Their DELTAS over a run must be equal cluster-wide:
// every order line's quantity lands in exactly one stock row's YTD, on
// whatever shard supplies it, atomically with the order line — the
// cluster-level cross-shard atomicity invariant the torture campaign
// asserts. Call only on quiesced, fully recovered clusters.
func (c *Cluster) StockYTDTotal() (uint64, error) {
	var total uint64
	for _, s := range c.shards {
		err := s.DB.Heap(core.Stock).Scan(func(_ storage.RID, rec []byte) bool {
			var r db.StockRec
			r.Unmarshal(rec[:tpcc.TupleLen[core.Stock]])
			total += r.YTD
			return true
		})
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", s.ID, err)
		}
	}
	return total, nil
}

// OrderLineQtyTotal sums order-line quantities over every shard.
func (c *Cluster) OrderLineQtyTotal() (uint64, error) {
	var total uint64
	for _, s := range c.shards {
		err := s.DB.Heap(core.OrderLine).Scan(func(_ storage.RID, rec []byte) bool {
			var r db.OrderLineRec
			r.Unmarshal(rec[:tpcc.TupleLen[core.OrderLine]])
			total += uint64(r.Quantity)
			return true
		})
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", s.ID, err)
		}
	}
	return total, nil
}
