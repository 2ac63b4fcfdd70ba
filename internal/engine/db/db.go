package db

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/bufmgr"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/mvcc"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// CCMode selects the engine's concurrency-control protocol.
type CCMode uint8

const (
	// CC2PL is strict two-phase locking: shared locks for reads,
	// exclusive for writes, all held to commit. The seed protocol and
	// the differential oracle for CCMVCC.
	CC2PL CCMode = iota
	// CCMVCC is snapshot isolation over version chains: reads never
	// lock (each transaction observes the newest commit at or below its
	// begin-time snapshot), writes take exclusive locks and validate
	// first committer wins, aborting with ErrWriteConflict on a row
	// committed past the snapshot. Write skew is allowed.
	CCMVCC
	// CCSSI is CCMVCC plus Cahill-style serializable snapshot
	// isolation: SIREAD marks and rw-antidependency tracking abort any
	// would-be pivot of a dangerous structure with ErrSSIAbort, closing
	// the write-skew hole — committed histories are serializable, like
	// 2PL, at snapshot-read cost plus a conservative abort rate.
	CCSSI
)

func (m CCMode) String() string {
	switch m {
	case CC2PL:
		return "2pl"
	case CCMVCC:
		return "mvcc"
	case CCSSI:
		return "ssi"
	default:
		return fmt.Sprintf("cc(%d)", uint8(m))
	}
}

// ParseCCMode parses a -cc flag value ("2pl", "mvcc" or "ssi").
func ParseCCMode(s string) (CCMode, error) {
	switch s {
	case "2pl":
		return CC2PL, nil
	case "mvcc":
		return CCMVCC, nil
	case "ssi":
		return CCSSI, nil
	default:
		return 0, fmt.Errorf("db: unknown concurrency-control mode %q (want 2pl, mvcc or ssi)", s)
	}
}

// Config sizes the database instance.
type Config struct {
	// Warehouses is the scale factor W.
	Warehouses int
	// PageSize is the page size in bytes (paper: 4096).
	PageSize int
	// BufferPages is the buffer-pool capacity in pages.
	BufferPages int
	// LockStripes is the lock-manager stripe count (rounded up to a power
	// of two). 0 means lock.DefaultStripes; 1 recovers the single-table
	// manager for differential testing.
	LockStripes int
	// BufferPartitions is the buffer-pool partition count (rounded up to a
	// power of two, must not exceed BufferPages). 0 means 1 — the unified
	// pool, which is the only configuration with a totally ordered
	// reference stream (see xval).
	BufferPartitions int
	// CC selects the concurrency-control protocol; the zero value is
	// CC2PL (the seed behavior).
	CC CCMode
}

// DefaultConfig returns a laptop-friendly single-warehouse instance.
func DefaultConfig() Config {
	return Config{Warehouses: 1, PageSize: 4096, BufferPages: 4096}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Warehouses <= 0 {
		return fmt.Errorf("db: warehouses must be positive")
	}
	if c.PageSize < tpcc.TupleLen[core.Customer]+64 {
		return fmt.Errorf("db: page size %d too small", c.PageSize)
	}
	if c.BufferPages <= 0 {
		return fmt.Errorf("db: buffer pages must be positive")
	}
	if c.LockStripes < 0 {
		return fmt.Errorf("db: lock stripes must be non-negative")
	}
	if c.BufferPartitions < 0 {
		return fmt.Errorf("db: buffer partitions must be non-negative")
	}
	if c.CC > CCSSI {
		return fmt.Errorf("db: unknown concurrency-control mode %d", c.CC)
	}
	// Partition counts round up to a power of two; the rounded count must
	// still leave every partition at least one frame.
	for p := 1; c.BufferPartitions > 0; p <<= 1 {
		if p >= c.BufferPartitions {
			if p > c.BufferPages {
				return fmt.Errorf("db: %d buffer partitions (rounded from %d) exceed %d buffer pages",
					p, c.BufferPartitions, c.BufferPages)
			}
			break
		}
	}
	return nil
}

// guardedTree is a B+tree with a reader/writer latch; the engine's
// transactions run on multiple goroutines and the tree is shared.
type guardedTree struct {
	mu sync.RWMutex
	t  *index.BTree
}

func newGuardedTree() *guardedTree { return &guardedTree{t: index.New()} }

func (g *guardedTree) get(k uint64) (uint64, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.t.Get(k)
}

func (g *guardedTree) set(k, v uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.t.Set(k, v)
}

func (g *guardedTree) delete(k uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.t.Delete(k)
}

func (g *guardedTree) min(lo uint64) (uint64, uint64, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.t.Min(lo)
}

func (g *guardedTree) max(hi uint64) (uint64, uint64, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.t.Max(hi)
}

func (g *guardedTree) ascendRange(lo, hi uint64, fn func(k, v uint64) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.t.AscendRange(lo, hi, fn)
}

func (g *guardedTree) reset() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.t = index.New()
}

// relPager tags pages with their owning relation as they are allocated, so
// the buffer manager's per-class stats align with the model's per-relation
// miss rates.
type relPager struct {
	buf *bufmgr.Manager
	db  *DB
	rel core.Relation
}

func (p relPager) With(id storage.PageID, dirty bool, fn func(page []byte)) error {
	return p.buf.With(id, dirty, fn)
}

func (p relPager) Pin(id storage.PageID) (storage.Pinned, error) { return p.buf.Pin(id) }

func (p relPager) Unpin(pg storage.Pinned, dirty bool) { p.buf.Unpin(pg, dirty) }

func (p relPager) Allocate() (storage.PageID, error) {
	id, err := p.buf.Allocate()
	if err != nil {
		return 0, err
	}
	p.db.pageRel.set(id, p.rel)
	return id, nil
}

// pageRelMap is a dense page→relation table. PageIDs are allocated densely
// from 0, so a slice indexed by page ID beats a map: the classifier reads
// it on every flush and eviction, and reads must not allocate.
type pageRelMap struct {
	mu   sync.RWMutex
	rels []core.Relation
}

func (m *pageRelMap) set(id storage.PageID, rel core.Relation) {
	m.mu.Lock()
	if n := int(id) + 1; n > len(m.rels) {
		grown := make([]core.Relation, n+n/2+64)
		copy(grown, m.rels)
		m.rels = grown[:n]
	}
	m.rels[id] = rel
	m.mu.Unlock()
}

func (m *pageRelMap) get(id storage.PageID) core.Relation {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if int(id) < len(m.rels) {
		return m.rels[id]
	}
	return 0
}

// DB is a running TPC-C database instance.
type DB struct {
	cfg   Config
	store *storage.Store
	buf   *bufmgr.Manager
	log   *wal.Log
	locks *lock.Manager

	// mvcc is the version-chain store; nil under CC2PL. ccMVCC caches
	// "a version store exists" (CCMVCC or CCSSI) for the per-operation
	// hot path; ccSSI additionally marks the serializable mode (the
	// store runs SIREAD/conflict-flag tracking and commits must pass
	// PreCommit validation).
	mvcc   *mvcc.Store
	ccMVCC bool
	ccSSI  bool

	heaps [core.NumRelations]*storage.HeapFile
	// pageRel maps pages to relations for buffer accounting.
	pageRel pageRelMap

	// Primary and secondary indexes (memory-resident, rebuilt at
	// recovery, as the paper's one-index-lookup assumption implies).
	warehouseIdx *guardedTree // w               -> RID
	districtIdx  *guardedTree // (w,d)           -> RID
	customerIdx  *guardedTree // (w,d,c)         -> RID
	custNameIdx  *guardedTree // (w,d,name,c)    -> RID
	stockIdx     *guardedTree // (w,i)           -> RID
	itemIdx      *guardedTree // i               -> RID
	orderIdx     *guardedTree // (w,d,o)         -> RID
	custOrderIdx *guardedTree // (w,d,c,o)       -> RID
	newOrderIdx  *guardedTree // (w,d,o)         -> RID
	olIdx        *guardedTree // (w,d,o,line)    -> RID

	txnSeq  atomic.Uint64
	tick    atomic.Uint64
	commits atomic.Int64
	aborts  atomic.Int64

	// lastRecovery holds the stats of the most recent Recover call; only
	// read/written on the quiesced recovery path.
	lastRecovery wal.RecoverStats

	// Two-phase-commit state: durable+in-memory gid outcomes (this
	// instance acting as coordinator) and the in-doubt branches the last
	// recovery surfaced (this instance acting as participant).
	distMu   sync.Mutex
	outcomes map[uint64]bool
	inDoubt  []wal.InDoubtTxn

	// sessions is the free list of execution contexts behind the DB-level
	// procedure methods and the 2PC branches, so callers without their own
	// Session still run on recycled scratch. A list, not a sync.Pool: a
	// session that is dropped takes its mvcc retire ring with it and the
	// chains in it are never pruned. It grows to the peak number of
	// sessions in use at once.
	sessMu   sync.Mutex
	sessions []*Session
}

// Options customizes the engine's I/O substrate; the zero value gives a
// fault-free in-memory device. The fault package supplies implementations
// of the device fields to inject disk and log-device failures.
type Options struct {
	// Disk backs the page store; nil means a private storage.MemDisk.
	Disk storage.DiskIO
	// LogHook intercepts log forces; nil means a perfect log device.
	LogHook wal.FaultHook
	// GroupCommit switches WAL commit batching on; the zero value keeps
	// one log force per committing writer.
	GroupCommit wal.GroupConfig
	// LockWaitTimeout bounds row-lock waits (0 = wait forever). Sharded
	// execution must set it: cross-shard deadlock cycles are invisible to
	// any single shard's wait-for graph.
	LockWaitTimeout time.Duration
}

// Open creates an empty database instance (no data loaded) on fault-free
// in-memory devices.
func Open(cfg Config) (*DB, error) { return OpenWith(cfg, Options{}) }

// OpenWith creates an empty database instance over the given devices.
func OpenWith(cfg Config, opts Options) (*DB, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	disk := opts.Disk
	if disk == nil {
		disk = storage.NewMemDisk()
	}
	store, err := storage.NewStoreOn(disk, cfg.PageSize)
	if err != nil {
		return nil, err
	}
	stripes := cfg.LockStripes
	if stripes == 0 {
		stripes = lock.DefaultStripes
	}
	partitions := cfg.BufferPartitions
	if partitions == 0 {
		partitions = 1
	}
	d := &DB{
		cfg:   cfg,
		store: store,
		log:   wal.New(),
		locks: lock.NewManagerStripes(stripes),
	}
	switch cfg.CC {
	case CCMVCC:
		d.mvcc = mvcc.NewStore()
		d.ccMVCC = true
	case CCSSI:
		d.mvcc = mvcc.NewSerializableStore()
		d.ccMVCC = true
		d.ccSSI = true
	}
	d.log.SetFaultHook(opts.LogHook)
	d.log.SetGroupCommit(opts.GroupCommit)
	d.locks.SetWaitTimeout(opts.LockWaitTimeout)
	d.buf = bufmgr.NewPartitioned(d.store, cfg.BufferPages, partitions)
	// The WAL rule: no dirty page reaches the store before the log
	// records covering it are durable.
	d.buf.SetLog(d.log)
	d.buf.SetClassifier(int(core.NumRelations), func(id storage.PageID) int {
		return int(d.pageRel.get(id))
	})
	for _, rel := range core.Relations() {
		h, err := storage.NewHeapFile(rel.String(), relPager{buf: d.buf, db: d, rel: rel},
			cfg.PageSize, tpcc.TupleLen[rel])
		if err != nil {
			return nil, err
		}
		d.heaps[rel] = h
	}
	d.resetIndexes()
	return d, nil
}

func (d *DB) resetIndexes() {
	d.warehouseIdx = newGuardedTree()
	d.districtIdx = newGuardedTree()
	d.customerIdx = newGuardedTree()
	d.custNameIdx = newGuardedTree()
	d.stockIdx = newGuardedTree()
	d.itemIdx = newGuardedTree()
	d.orderIdx = newGuardedTree()
	d.custOrderIdx = newGuardedTree()
	d.newOrderIdx = newGuardedTree()
	d.olIdx = newGuardedTree()
}

// Config returns the instance configuration.
func (d *DB) Config() Config { return d.cfg }

// BufferStats returns the buffer manager's global counters.
func (d *DB) BufferStats() bufmgr.Stats { return d.buf.Stats() }

// RelationStats returns per-relation buffer counters.
func (d *DB) RelationStats() map[core.Relation]bufmgr.Stats {
	out := make(map[core.Relation]bufmgr.Stats)
	for i, s := range d.buf.ClassStats() {
		out[core.Relation(i)] = s
	}
	return out
}

// ResetBufferStats zeroes buffer counters (after load/warmup).
func (d *DB) ResetBufferStats() { d.buf.ResetStats() }

// SetBufferTap installs a buffer reference-stream tap (see bufmgr.Tap).
// Install it before Load so the tapped stream covers the residency the
// load establishes; the cross-validation replay (package xval) needs the
// full pool history to reproduce measured hits and misses exactly.
func (d *DB) SetBufferTap(fn bufmgr.Tap) { d.buf.SetTap(fn) }

// LockCounts exposes the lock manager's counters.
func (d *DB) LockCounts() (acquired, waits, deadlocks int64) { return d.locks.Counts() }

// LogForces returns the number of log forces committers issued: one per
// waited-for record without batching, fewer as group commit shares them.
func (d *DB) LogForces() int64 { return d.log.Forces() }

// SetGroupCommit reconfigures WAL commit batching (zero value disables).
func (d *DB) SetGroupCommit(cfg wal.GroupConfig) { d.log.SetGroupCommit(cfg) }

// GroupCommit returns the WAL's current commit-batching configuration.
func (d *DB) GroupCommit() wal.GroupConfig { return d.log.GroupCommit() }

// Commits and Aborts report transaction outcomes.
func (d *DB) Commits() int64 { return d.commits.Load() }

// Aborts reports the number of aborted transactions (deadlock victims
// under 2PL; deadlock victims plus first-committer-wins losers under
// mvcc).
func (d *DB) Aborts() int64 { return d.aborts.Load() }

// WriteConflicts reports the number of first-committer-wins validation
// failures (always 0 under CC2PL).
func (d *DB) WriteConflicts() int64 {
	if d.mvcc == nil {
		return 0
	}
	return d.mvcc.Conflicts()
}

// SSIAborts reports the number of dangerous-structure aborts (always 0
// outside CCSSI).
func (d *DB) SSIAborts() int64 {
	if d.mvcc == nil {
		return 0
	}
	return d.mvcc.SSIAborts()
}

// VersionChains reports the number of live (unpruned) version chains
// (always 0 under CC2PL); quiesced steady state should be near zero.
func (d *DB) VersionChains() int {
	if d.mvcc == nil {
		return 0
	}
	return d.mvcc.Chains()
}

// Heap exposes a relation's heap file (read-only use: stats, verification).
func (d *DB) Heap(rel core.Relation) *storage.HeapFile { return d.heaps[rel] }

// StateHash folds every live record of every relation, in heap order,
// into one fnv-64a digest. Two databases with equal hashes hold identical
// committed state (same tuples at the same record IDs). Only meaningful
// on a quiesced instance; it is the differential gate used to compare
// concurrency-control modes and buffer layouts.
func (d *DB) StateHash() (uint64, error) {
	h := fnv.New64a()
	var scratch [8]byte
	for _, rel := range core.Relations() {
		scratch[0] = byte(rel)
		if _, err := h.Write(scratch[:1]); err != nil {
			return 0, err
		}
		err := d.heaps[rel].Scan(func(rid storage.RID, rec []byte) bool {
			scratch[0] = byte(rid.Page)
			scratch[1] = byte(rid.Page >> 8)
			scratch[2] = byte(rid.Page >> 16)
			scratch[3] = byte(rid.Page >> 24)
			scratch[4] = byte(rid.Slot)
			scratch[5] = byte(rid.Slot >> 8)
			h.Write(scratch[:6])
			h.Write(rec)
			return true
		})
		if err != nil {
			return 0, err
		}
	}
	return h.Sum64(), nil
}

// nextTick returns a monotonically increasing stamp used for entry and
// delivery timestamps (the model forbids wall-clock time for determinism).
func (d *DB) nextTick() uint64 { return d.tick.Add(1) }

// Checkpoint flushes all dirty pages to the store.
func (d *DB) Checkpoint() error { return d.buf.FlushAll() }

// Crash simulates a failure: all volatile buffer contents are lost; the
// durable store and the log survive. Catalog metadata (heap page lists)
// is considered durable, as in a real system.
func (d *DB) Crash() error { return d.buf.Crash() }

// CrashPowerLoss simulates a full power loss: volatile buffers are lost
// AND the unforced tail of the log may be partially written or torn (the
// damage is drawn from r). Acknowledged commits are always inside the
// forced prefix and survive.
func (d *DB) CrashPowerLoss(r *rng.RNG) error {
	d.log.CrashTail(r)
	return d.buf.Crash()
}

// RecoveryStats reports what the most recent Recover did (how many rows
// were materialized, how much damaged log tail was truncated).
func (d *DB) RecoveryStats() wal.RecoverStats { return d.lastRecovery }

// StoreStats exposes the page store's I/O and integrity counters.
func (d *DB) StoreStats() storage.StoreStats { return d.store.Stats() }

// VerifyPages checks the checksum of every page in the catalog (all heap
// pages), repairing from the journal mirror where possible. Pages listed
// in the result's Corrupt slice have no intact copy.
func (d *DB) VerifyPages() (storage.VerifyResult, error) {
	var ids []storage.PageID
	for _, rel := range core.Relations() {
		ids = append(ids, d.heaps[rel].PageIDs()...)
	}
	return d.store.Verify(ids)
}

// heapApplier adapts a HeapFile to wal.Applier: rows are read into the
// applier's one scratch buffer, a nil image deletes the row if present, and
// anything else is written in place.
type heapApplier struct {
	h   *storage.HeapFile
	row []byte
}

// appliers returns one applier per relation, keyed as log records are.
func (d *DB) appliers() map[uint32]wal.Applier {
	out := make(map[uint32]wal.Applier, core.NumRelations)
	for _, rel := range core.Relations() {
		h := d.heaps[rel]
		out[uint32(rel)] = &heapApplier{h: h, row: make([]byte, h.RecordLen())}
	}
	return out
}

func (a *heapApplier) Read(rid uint64) ([]byte, error) {
	if err := a.h.Read(storage.UnpackRID(rid), a.row); err != nil {
		if errors.Is(err, storage.ErrNoRecord) {
			return nil, nil
		}
		return nil, err // real I/O failure, not an absent row
	}
	return a.row, nil
}

func (a *heapApplier) Apply(rid uint64, image []byte) error {
	r := storage.UnpackRID(rid)
	if image != nil {
		return a.h.InsertAt(r, image)
	}
	if err := a.h.Delete(r); err != nil && !errors.Is(err, storage.ErrNoRecord) {
		return err
	}
	return nil // already absent: idempotent
}

// Recover restores a consistent committed state after Crash: heaps are
// reattached over the durable pages, the log is replayed, and all indexes
// are rebuilt from the heaps. Distributed bookkeeping is restored too:
// durable gid decisions reload the coordinator outcome map, prepared
// branches with no decision become in-doubt (rolled back per presumed
// abort, exclusive row locks re-acquired so other transactions cannot
// overwrite rows a commit decision may re-apply), and
// the transaction-id sequence restarts past every logged id.
func (d *DB) Recover() error {
	for _, rel := range core.Relations() {
		if err := d.heaps[rel].AttachPages(d.heaps[rel].PageIDs()); err != nil {
			return err
		}
	}
	appliers := d.appliers()
	st, dist, err := wal.RecoverDist(d.log, appliers)
	d.lastRecovery = st
	if err != nil {
		return err
	}
	// Recovery rebuilt the heaps to committed state, so no version chain
	// carries information any longer; ghost snapshots die with the crash.
	if d.ccMVCC {
		d.mvcc.Reset()
	}
	if d.txnSeq.Load() < dist.MaxTxn {
		d.txnSeq.Store(dist.MaxTxn)
	}
	d.distMu.Lock()
	if d.outcomes == nil {
		d.outcomes = make(map[uint64]bool)
	}
	for gid, committed := range dist.Decisions {
		d.outcomes[gid] = committed
	}
	d.inDoubt = dist.InDoubt
	d.distMu.Unlock()
	if err := d.RebuildIndexes(); err != nil {
		return err
	}
	return d.relockInDoubt(appliers, dist.InDoubt)
}

// RebuildIndexes reconstructs every index from the heap contents.
func (d *DB) RebuildIndexes() error {
	d.resetIndexes()
	var err error
	scan := func(rel core.Relation, fn func(rid storage.RID, rec []byte)) {
		if err != nil {
			return
		}
		err = d.heaps[rel].Scan(func(rid storage.RID, rec []byte) bool {
			fn(rid, rec)
			return true
		})
	}
	scan(core.Warehouse, func(rid storage.RID, rec []byte) {
		var r WarehouseRec
		r.Unmarshal(rec)
		d.warehouseIdx.set(uint64(r.ID), rid.Pack())
	})
	scan(core.District, func(rid storage.RID, rec []byte) {
		var r DistrictRec
		r.Unmarshal(rec)
		d.districtIdx.set(index.KeyWD(int64(r.WID), int64(r.ID)), rid.Pack())
	})
	scan(core.Customer, func(rid storage.RID, rec []byte) {
		var r CustomerRec
		r.Unmarshal(rec)
		d.customerIdx.set(index.KeyWDC(int64(r.WID), int64(r.DID), int64(r.ID)), rid.Pack())
		d.custNameIdx.set(index.KeyWDNC(int64(r.WID), int64(r.DID), int64(r.NameOrd), int64(r.ID)), rid.Pack())
	})
	scan(core.Stock, func(rid storage.RID, rec []byte) {
		var r StockRec
		r.Unmarshal(rec)
		d.stockIdx.set(index.KeyWI(int64(r.WID), int64(r.IID)), rid.Pack())
	})
	scan(core.Item, func(rid storage.RID, rec []byte) {
		var r ItemRec
		r.Unmarshal(rec)
		d.itemIdx.set(uint64(r.IID), rid.Pack())
	})
	scan(core.Order, func(rid storage.RID, rec []byte) {
		var r OrderRec
		r.Unmarshal(rec)
		d.orderIdx.set(index.KeyWDO(int64(r.WID), int64(r.DID), int64(r.OID)), rid.Pack())
		d.custOrderIdx.set(index.KeyWDCO(int64(r.WID), int64(r.DID), int64(r.CID), int64(r.OID)), rid.Pack())
	})
	scan(core.NewOrder, func(rid storage.RID, rec []byte) {
		var r NewOrderRec
		r.Unmarshal(rec)
		d.newOrderIdx.set(index.KeyWDO(int64(r.WID), int64(r.DID), int64(r.OID)), rid.Pack())
	})
	scan(core.OrderLine, func(rid storage.RID, rec []byte) {
		var r OrderLineRec
		r.Unmarshal(rec)
		d.olIdx.set(index.KeyWDOL(int64(r.WID), int64(r.DID), int64(r.OID), int64(r.Number)), rid.Pack())
	})
	// History has no index (append-only, never queried by the workload).
	return err
}
