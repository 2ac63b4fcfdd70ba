// Package wal implements the engine's write-ahead log: physiological
// records carrying full before/after images, commit/abort records, and
// recovery by reconstructing each row's committed state in log order
// against the durable page store.
//
// Durability boundary: the log is prefix-durable. One watermark splits the
// buffer into the forced prefix, which survives power loss, and a volatile
// tail a crash may lose or tear (CrashTail models this). Every record
// carries a CRC32-C, so recovery detects a torn or corrupted tail and
// truncates the log at the first bad record instead of replaying garbage.
// The buffer manager calls Force before stealing a dirty page, so any page
// image on disk is always covered by durable log records (the WAL rule).
//
// Commit is split in two. PreCommit puts a transaction's commit record in
// the buffer without touching the device; the transaction then publishes
// its writes and releases its locks (early lock release), and only then
// calls WaitDurable, which returns once the watermark has passed its
// record. Because the prefix is durable in order, a transaction that read
// those writes appended its own record later and can be neither durable
// nor acknowledged sooner; a transaction that wrote nothing appends
// nothing and acknowledges through WaitPreCommitted, once every commit
// record buffered before that point is durable. Abort records are
// buffered and never waited for: recovery treats a transaction without a
// commit record as aborted anyway.
//
// Forcing is one protocol: the watermark, a forcing flag and one condition
// variable. A waiter that finds no force in flight leads one — it notes
// how far to force, drops the mutex, calls the device, re-locks, advances
// the watermark and wakes everyone; a waiter that finds one in flight
// sleeps until it ends and looks again. Appends proceed during the device
// wait, and with group commit enabled (SetGroupCommit) everything buffered
// meanwhile rides the next force: batching with no queue, hold or timer,
// amortizing the one log I/O per transaction the throughput model charges
// (the "1 +" term in Table 4's initIO row) — the lever Gray's TPC
// retrospective credits for real systems beating the naive bound. The zero
// GroupConfig is that bound kept exact: every committer leads a force of
// its own, up to its own record.
//
// Append, for commit, abort and prepare records, is force-then-release:
// durable on return, for two-phase commit, whose votes and decisions must
// be durable before anyone is told and must leave no trace if they are not.
//
// Failure contract. A transaction past PreCommit can no longer be rolled
// back and retried, so the leader retries a transient device error
// (storage.ErrTransientIO) in place, a bounded number of times, the bytes
// staying in the buffer. If the error persists, or the device is dead
// (storage.ErrCrashed), the log latches failed: every waiter and every
// later PreCommit, forced Append, Force and WaitPreCommitted returns the
// error until recovery clears it. The buffered record may still reach the
// device with a surviving tail, so a transaction that was never
// acknowledged may survive a crash — at most one per worker, and never
// without the transactions it read from. An acknowledged one always does.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"time"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/rng"
)

// RecType tags a log record.
type RecType uint8

// Record types.
const (
	RecInsert RecType = iota
	RecUpdate
	RecDelete
	RecCommit
	RecAbort
	// RecPrepare marks a participant branch of a distributed transaction
	// as prepared (two-phase commit). Like commit and abort records it is
	// forced, so a prepared branch survives any crash; its RID field
	// carries the global transaction id (gid) instead of a row address.
	RecPrepare
)

// String names the record type.
func (t RecType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecUpdate:
		return "update"
	case RecDelete:
		return "delete"
	case RecCommit:
		return "commit"
	case RecAbort:
		return "abort"
	case RecPrepare:
		return "prepare"
	default:
		return fmt.Sprintf("rec(%d)", uint8(t))
	}
}

// forced reports whether records of this type force the log when appended.
func (t RecType) forced() bool {
	return t == RecCommit || t == RecAbort || t == RecPrepare
}

// Log corruption sentinels.
var (
	// ErrCorrupt marks a record whose checksum failed.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrTruncated marks a record cut off by the end of the log.
	ErrTruncated = errors.New("wal: truncated record")
)

// LSN is a log sequence number (1-based; 0 means "none").
type LSN uint64

// Record is one log entry. Table/RID address the record. After is the
// full after-image (nil for Delete: the row is absent afterwards); Before
// is the full before-image (nil for Insert: the row was absent before).
// Before-images make recovery correct under a *steal* buffer policy — the
// engine's buffer manager may flush a dirty page of an uncommitted
// transaction on eviction, so recovery must be able to restore the
// pre-transaction value.
type Record struct {
	LSN    LSN
	Txn    uint64
	Type   RecType
	Table  uint32
	RID    uint64 // packed storage.RID
	Before []byte
	After  []byte
}

// Header layout: crc32c | lsn | txn | type | table | rid | blen | alen.
// The CRC covers everything after itself, including both images.
const recHeader = 4 + 8 + 8 + 1 + 4 + 8 + 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encode appends the serialized record to buf.
func (r Record) encode(buf []byte) []byte {
	start := len(buf)
	var tmp [recHeader]byte
	binary.LittleEndian.PutUint64(tmp[4:12], uint64(r.LSN))
	binary.LittleEndian.PutUint64(tmp[12:20], r.Txn)
	tmp[20] = byte(r.Type)
	binary.LittleEndian.PutUint32(tmp[21:25], r.Table)
	binary.LittleEndian.PutUint64(tmp[25:33], r.RID)
	binary.LittleEndian.PutUint32(tmp[33:37], uint32(len(r.Before)))
	binary.LittleEndian.PutUint32(tmp[37:41], uint32(len(r.After)))
	buf = append(buf, tmp[:]...)
	buf = append(buf, r.Before...)
	buf = append(buf, r.After...)
	crc := crc32.Checksum(buf[start+4:], castagnoli)
	binary.LittleEndian.PutUint32(buf[start:start+4], crc)
	return buf
}

// parseRecord reads one record's header from buf and returns the record,
// its images aliasing buf, and its encoded length. It fails with
// ErrTruncated when buf ends mid-record; it does not verify the checksum.
func parseRecord(buf []byte) (Record, int, error) {
	if len(buf) < recHeader {
		return Record{}, 0, fmt.Errorf("wal: record header cut at %d bytes: %w",
			len(buf), ErrTruncated)
	}
	nb := int(binary.LittleEndian.Uint32(buf[33:37]))
	na := int(binary.LittleEndian.Uint32(buf[37:41]))
	total := recHeader + nb + na
	if nb < 0 || na < 0 || total < recHeader || total > len(buf) {
		return Record{}, 0, fmt.Errorf("wal: record body cut (%d of %d bytes): %w",
			len(buf), total, ErrTruncated)
	}
	r := Record{
		LSN:   LSN(binary.LittleEndian.Uint64(buf[4:12])),
		Txn:   binary.LittleEndian.Uint64(buf[12:20]),
		Type:  RecType(buf[20]),
		Table: binary.LittleEndian.Uint32(buf[21:25]),
		RID:   binary.LittleEndian.Uint64(buf[25:33]),
	}
	if nb > 0 {
		r.Before = buf[recHeader : recHeader+nb : recHeader+nb]
	}
	if na > 0 {
		r.After = buf[recHeader+nb : total : total]
	}
	return r, total, nil
}

// decodeRecord reads one record from buf, returning it and the remainder.
// The record's images alias buf. It fails with ErrTruncated when buf ends
// mid-record and ErrCorrupt when the checksum does not match.
func decodeRecord(buf []byte) (Record, []byte, error) {
	r, total, err := parseRecord(buf)
	if err != nil {
		return Record{}, nil, err
	}
	if crc32.Checksum(buf[4:total], castagnoli) != binary.LittleEndian.Uint32(buf[0:4]) {
		return Record{}, nil, fmt.Errorf("wal: checksum mismatch: %w", ErrCorrupt)
	}
	return r, buf[total:], nil
}

// FaultHook intercepts log-device operations; the fault package installs
// one to fail or crash forces, the benchmark one that charges a service
// time. A nil hook means a perfect, free device.
type FaultHook interface {
	// BeforeForce runs before the first n bytes of the log become durable
	// (n is cumulative: the new durable-prefix length). It is called
	// without the log mutex held, one call at a time. Returning an error
	// fails the force: the watermark does not advance.
	BeforeForce(n int) error
}

// GroupConfig switches commit batching on or off; Enabled is its one
// meaning. Enabled, a force covers everything buffered when it starts, so
// whatever was pre-committed during the previous force rides the next one.
// The zero value is the paper's one-log-I/O-per-commit baseline: every
// committer issues a force of its own, up to its own record.
type GroupConfig struct {
	// MaxBatch > 1 enables batching. The value bounds nothing any more: a
	// batch is whatever accumulated during the previous force.
	MaxBatch int
	// Deprecated: MaxHold is ignored. No leader holds for followers; the
	// field remains only because internal/bench names it, and goes with
	// the next benchmark change.
	MaxHold time.Duration
	// Deprecated: AdaptiveHold is ignored, like MaxHold.
	AdaptiveHold bool
}

// Enabled reports whether the configuration batches.
func (g GroupConfig) Enabled() bool { return g.MaxBatch > 1 }

// maxForceRetries bounds how often one force retries a transient device
// error in place before the log gives up and latches failed.
const maxForceRetries = 8

// Log is the engine's log device. The forced prefix survives crashes (the
// log device is separate from the data disks, as the paper assumes); the
// unforced tail is volatile buffer contents.
type Log struct {
	mu     sync.Mutex
	data   []byte
	next   LSN
	forces int64 // forces led by committers (the model's per-txn log I/O)
	syncs  int64 // WAL-rule forces issued by the buffer manager
	waits  int64 // records whose durability a committer waited for
	hook   FaultHook
	group  GroupConfig

	// The durable prefix is data[:forcedLen]. At most one force is in
	// flight (forcing); it runs without mu, and durable is broadcast when
	// it ends. commitEnd is the end of the latest pre-committed commit
	// record. failed latches the error of a force that could not be
	// completed: from then on every commit fails until recovery.
	forcedLen int
	forcing   bool
	durable   *sync.Cond
	commitEnd int
	failed    error
}

// New creates an empty log.
func New() *Log {
	l := &Log{next: 1}
	l.durable = sync.NewCond(&l.mu)
	return l
}

// SetFaultHook installs a log-device fault hook (nil disables).
func (l *Log) SetFaultHook(h FaultHook) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.hook = h
}

// SetGroupCommit configures commit batching (zero value disables).
func (l *Log) SetGroupCommit(cfg GroupConfig) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.group = cfg
}

// GroupCommit returns the current batching configuration.
func (l *Log) GroupCommit() GroupConfig {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.group
}

// Grow ensures the log buffer can absorb at least n more bytes without
// reallocating — lets benchmarks and allocation-regression tests keep
// amortized buffer doubling out of the measured loop.
func (l *Log) Grow(n int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if cap(l.data)-len(l.data) < n {
		grown := make([]byte, len(l.data), len(l.data)+n)
		copy(grown, l.data)
		l.data = grown
	}
}

// buffer encodes r at the end of the log buffer and returns its LSN and
// end offset. Called with l.mu held.
func (l *Log) buffer(r Record) (LSN, int) {
	r.LSN = l.next
	l.data = r.encode(l.data)
	l.next++
	return r.LSN, len(l.data)
}

// Append writes one record (assigning its LSN) and returns the LSN. Data
// records are only buffered. Commit, abort, and prepare records are
// durable when Append returns — force-then-release, what a two-phase-commit
// vote or decision needs — and a failed force leaves no trace of them: the
// record is voided in the buffer, so no later force or crash can make an
// unacknowledged vote or decision durable.
func (l *Log) Append(r Record) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !r.Type.forced() {
		lsn, _ := l.buffer(r)
		return lsn, nil
	}
	if l.failed != nil {
		return 0, l.failed
	}
	lsn, end := l.buffer(r)
	if err := l.waitDurable(end); err != nil {
		// Nothing past the watermark is durable and a failed log forces
		// nothing more, so the bytes can still be rewritten: as the abort
		// of transaction 0, which no transaction is and recovery ignores.
		void := Record{LSN: lsn, Type: RecAbort, Before: r.Before, After: r.After}
		void.encode(l.data[:end-recHeader-len(r.Before)-len(r.After)])
		return 0, err
	}
	return lsn, nil
}

// PreCommit buffers a commit or abort record without forcing and returns
// its LSN and end offset. After it the transaction may publish its writes
// and release its locks; it acknowledges once WaitDurable(end) returns.
// The log is prefix-durable, so a later transaction that read those writes
// can never be durable, or acknowledged, ahead of this one.
func (l *Log) PreCommit(r Record) (LSN, int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, 0, l.failed
	}
	lsn, end := l.buffer(r)
	if r.Type == RecCommit {
		l.commitEnd = end
	}
	return lsn, int64(end), nil
}

// WaitDurable returns once the first end bytes of the log are durable,
// forcing them unless another committer's force already covers them. An
// error means the record is buffered but its durability is unknown until
// recovery: the caller must not undo the transaction.
func (l *Log) WaitDurable(end int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitDurable(int(end))
}

// WaitPreCommitted returns once every commit record pre-committed so far
// is durable. A transaction that wrote nothing acknowledges through it:
// whatever it read was pre-committed before it read it. It forces nothing
// itself — each of those records has a committer in WaitDurable.
func (l *Log) WaitPreCommitted() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for end := l.commitEnd; l.forcedLen < end; l.durable.Wait() {
		if l.failed != nil {
			return l.failed
		}
	}
	return nil
}

// waitDurable is WaitDurable with l.mu held. Whoever finds no force in
// flight leads one; everyone else waits for it to end and looks again.
// Without batching the caller always leads a force of its own, even when
// a neighbour's has covered its record: one log I/O per commit.
func (l *Log) waitDurable(end int) error {
	l.waits++
	own := !l.group.Enabled()
	for own || l.forcedLen < end {
		if l.failed != nil {
			if l.forcedLen >= end {
				return nil
			}
			return l.failed
		}
		if l.forcing {
			l.durable.Wait()
			continue
		}
		upto := len(l.data)
		if own {
			upto = max(end, l.forcedLen)
		}
		if err := l.lead(upto, &l.forces); err != nil {
			return err
		}
		own = false
	}
	return nil
}

// lead forces data[:upto], counting the force in *count. It drops l.mu
// around the device call, so appends proceed during the wait, and retries
// a transient device error in place; any other error, or a transient one
// that persists, latches the log failed. Called with l.mu held and no
// force in flight.
func (l *Log) lead(upto int, count *int64) error {
	var err error
	if hook := l.hook; hook != nil {
		l.forcing = true
		l.mu.Unlock()
		for try := 0; ; try++ {
			err = hook.BeforeForce(upto)
			if err == nil || try == maxForceRetries || !errors.Is(err, storage.ErrTransientIO) {
				break
			}
		}
		l.mu.Lock()
		l.forcing = false
	}
	if err != nil {
		l.failed = fmt.Errorf("wal: log failed until recovery: force: %w", err)
		err = l.failed
	} else {
		l.forcedLen = upto
		*count++
	}
	l.durable.Broadcast()
	return err
}

// Force makes the whole buffered log durable. The buffer manager calls it
// before flushing a dirty page (the WAL rule), so before-images of stolen
// pages always survive a crash.
func (l *Log) Force() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for end := len(l.data); l.forcedLen < end; {
		if l.failed != nil {
			return l.failed
		}
		if l.forcing {
			l.durable.Wait()
			continue
		}
		if err := l.lead(len(l.data), &l.syncs); err != nil {
			return err
		}
	}
	return nil
}

// Forces returns the number of log forces committers led — the model's
// one-log-I/O-per-transaction term.
func (l *Log) Forces() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.forces
}

// Waits returns the number of records a committer waited to see durable:
// the local commits that wrote something, plus every prepare, decision and
// forced abort. Forces/Waits is 1 without batching and falls below it as
// forces are shared.
func (l *Log) Waits() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waits
}

// Syncs returns the number of WAL-rule forces (page-steal protection).
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Size returns the log size in bytes.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.data))
}

// DurableSize returns the forced (crash-surviving) prefix length.
func (l *Log) DurableSize() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(l.forcedLen)
}

// CrashTail simulates power loss on the log device: the forced prefix
// survives; of the unforced tail, a random (seeded) prefix may reach the
// platter, and the last sector of what landed may be torn — one of its
// bits flips. Recovery's checksum scan truncates at the damage.
func (l *Log) CrashTail(r *rng.RNG) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tail := len(l.data) - l.forcedLen
	if tail <= 0 {
		return
	}
	keep := l.forcedLen + int(r.Int63n(int64(tail)+1))
	if keep > l.forcedLen && r.Bernoulli(0.5) {
		off := l.forcedLen + int(r.Int63n(int64(keep-l.forcedLen)))
		l.data[off] ^= byte(1) << uint(r.Int63n(8))
	}
	l.data = l.data[:keep]
	l.forcedLen = keep
}

// Scan decodes records from the start of the log until the end or the
// first truncated/corrupt record. It returns the records of the valid
// prefix (over a private copy of the buffer, for tests; recovery walks the
// log in place), the prefix length in bytes, and the decode error that
// stopped the scan (nil when the whole log parsed).
func (l *Log) Scan() ([]Record, int64, error) {
	l.mu.Lock()
	buf := append([]byte(nil), l.data...)
	l.mu.Unlock()
	var out []Record
	valid := 0
	rest := buf
	for len(rest) > 0 {
		r, next, err := decodeRecord(rest)
		if err != nil {
			return out, int64(valid), err
		}
		out = append(out, r)
		valid = len(buf) - len(next)
		rest = next
	}
	return out, int64(valid), nil
}

// Records decodes the whole log, failing if any record is damaged (strict
// form, for tests; recovery truncates instead).
func (l *Log) Records() ([]Record, error) {
	recs, _, err := l.Scan()
	if err != nil {
		return nil, err
	}
	return recs, nil
}

// beginRecovery walks the log in place up to its first damaged record,
// calling visit on each record (images aliasing the buffer), then cuts the
// log back to that valid prefix. It returns the prefix, how many bytes were
// cut, and the error that ended the walk (nil when the whole log parsed).
// What recovery read back is on the device, so the whole prefix counts as
// durable from here on, and a latched failure is cleared: the machine has
// restarted.
func (l *Log) beginRecovery(visit func(Record)) ([]byte, int64, error) {
	l.mu.Lock()
	buf := l.data
	l.mu.Unlock()
	var scanErr error
	valid := 0
	for valid < len(buf) {
		r, rest, err := decodeRecord(buf[valid:])
		if err != nil {
			scanErr = err
			break
		}
		visit(r)
		valid = len(buf) - len(rest)
	}
	l.mu.Lock()
	l.data = l.data[:valid]
	l.forcedLen, l.commitEnd, l.failed = valid, min(l.commitEnd, valid), nil
	l.mu.Unlock()
	return buf[:valid], int64(len(buf) - valid), scanErr
}

// Applier materializes a row's recovered state during recovery.
type Applier interface {
	// Apply makes image the row's content at rid; a nil image means the
	// row must be absent. Implementations must be idempotent and
	// tolerant of the durable page already holding the target state.
	Apply(rid uint64, image []byte) error
}

// RecoverStats reports what recovery did.
type RecoverStats struct {
	Applied            int64 // rows materialized
	SkippedUncommitted int64 // records of uncommitted/aborted transactions
	TruncatedBytes     int64 // log bytes discarded past the valid prefix
	TailCorrupt        bool  // truncation was due to a checksum mismatch
}

// Recover reconstructs the committed state per row and applies it through
// the per-table appliers. The log is first scanned up to the first
// damaged record; everything past that point is discarded (it can only be
// unacknowledged tail — commits force the log, so an acknowledged commit
// is always inside the valid prefix). For every (table, rid) the valid
// prefix touches, walking records in LSN order:
//
//   - a record of a COMMITTED transaction sets the row's state to its
//     after-image (nil for a delete);
//   - a record of an uncommitted, aborted, or in-doubt (prepared but
//     undecided) transaction establishes the row's state as its
//     BEFORE-image, but only if no state is known yet (strict 2PL
//     guarantees a later committed write supersedes it, and an earlier
//     committed write already equals that before-image).
//
// This is exact under the engine's steal/no-force buffer policy: a dirty
// uncommitted page flushed before the crash is rolled back by the
// before-image, and an unflushed committed change is re-applied by the
// after-image. RecoverDist additionally surfaces in-doubt transactions so
// the two-phase-commit layer can resolve them.
func Recover(l *Log, tables map[uint32]Applier) (RecoverStats, error) {
	st, _, err := RecoverDist(l, tables)
	return st, err
}
