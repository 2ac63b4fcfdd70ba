// Package wal implements the engine's write-ahead log: physiological
// records that say what changed in a row, commit/abort/prepare records, and
// recovery that folds each row's records, in log order, over the row the
// durable page store still holds.
//
// Record format. A record is a 37-byte header (crc32c | txn | type | table |
// rid | off | blen | alen) and two byte strings, and its name is the offset
// it starts at: Append returns it, and Undo takes it. An insert carries
// the row's full after-image, a delete its full before-image. An update
// carries the changed byte span: callers hand Append the full before- and
// after-image (Record.Before/After, Off 0), the log trims the prefix and
// suffix the two share, and what is written — and what a reader gets back —
// is the offset of the first byte that differs and the before and after
// bytes from there to the last byte that differs. A New-Order's Stock
// update logs bytes 8–28 of 306 twice instead of 306 twice. An update never
// changes a row's length; Append refuses one that would.
//
// Layout. The log is one byte stream addressed by a cumulative logical
// offset (Size, DurableSize, the end PreCommit returns and the n handed to
// FaultHook.BeforeForce are all such offsets). It is held in segments of
// segSize bytes, offset o living at byte o%segSize of segment o/segSize, so
// the log grows by allocating a segment and never copies itself. Records are
// laid end to end over the stream and may straddle a segment boundary; a
// reader gets such a record as a private copy, every other one in place.
//
// Recovery (RecoverDist). Pass 1 walks the stream, checksums included, to
// the first damaged record, learns which transactions committed, and cuts
// the log there. Pass 2 folds the data records of every row the valid
// prefix touches, in log order:
//
//   - a record of a committed transaction (a winner) is redone: an insert
//     sets the row to its image, a delete makes it absent, an update writes
//     its after-span over the row;
//   - records of transactions without a commit record (losers: aborted,
//     in flight at the crash, prepared and undecided, or pre-committed with
//     the commit record lost) are collected while they are consecutive on
//     the row, and such a maximal run is undone newest-first — a delete puts
//     its image back, an insert makes the row absent, an update writes its
//     before-span — when a winner's record on the row follows it or the log
//     ends.
//
// The fold starts from the durable row, read through the Applier the first
// time a span has to be written over it, and its result is applied once per
// row. This is exact under the engine's steal/no-force buffer policy, byte
// by byte: a byte no record covers was never changed, so the durable page
// has it right; a byte whose last covering record is a winner's gets that
// record's after-byte whatever state the page was flushed in; and a byte
// last covered by a loser run gets the before-byte of the run's oldest
// record, which — rows being exclusively locked until pre-commit, run-time
// aborts restoring what they changed, and the log being prefix-durable — is
// the last committed value. A span is not an image, so "the first
// before-image wins" is not enough: one transaction updating a row twice,
// two early-released transactions whose commit records were both lost, and a
// run-time abort later overwritten by a commit all put more than one loser
// span on a row, and only undoing them newest-first restores every byte.
// An update that finds the row absent is skipped: a later record of the
// fold deletes or re-creates the row.
//
// Durability boundary: the log is prefix-durable. One watermark splits the
// buffer into the forced prefix, which survives power loss, and a volatile
// tail a crash may lose or tear (CrashTail models this). Every record
// carries a CRC32-C, so recovery detects a torn or corrupted tail and
// truncates the log at the first bad record instead of replaying garbage.
//
// The WAL rule. A writer appends a row's record before it dirties the row's
// page, and the buffer manager notes, on every dirtying unpin, how long the
// log is (Size, one atomic load, no mutex). Before it writes the page back it
// calls ForceTo with the latest such note, so any page image on disk is
// covered by durable log records. ForceTo returns at once when the offset is
// inside the durable prefix — the usual case: the page about to be written is
// the pool's least recently used, last changed long before the log's durable
// point — and otherwise forces exactly as a committer does, everything
// buffered, so the n handed to BeforeForce never decreases.
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
// later PreCommit, forced Append, WaitPreCommitted and ForceTo of an offset
// not yet durable returns the error until recovery clears it. The buffered
// record may still reach the device with a surviving tail, so a transaction
// that was never acknowledged may survive a crash — at most one per worker,
// and never without the transactions it read from. An acknowledged one
// always does.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/bits"
	"sync"
	"sync/atomic"
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

// Record is one log entry. Table/RID address the row. An insert carries the
// row's full image in After, a delete in Before. An update is handed to
// Append with both full images and Off 0; the log keeps, and every reader of
// the log gets back, only the span that changed: Off is the offset in the
// row of the first byte that differs, Before and After the old and new bytes
// from there to the last byte that differs. Before-spans make recovery
// correct under a *steal* buffer policy — the buffer manager may flush a
// dirty page of an uncommitted transaction on eviction, so recovery must be
// able to restore the pre-transaction bytes.
type Record struct {
	Txn    uint64
	Type   RecType
	Table  uint32
	RID    uint64 // packed storage.RID
	Off    uint32
	Before []byte
	After  []byte
}

// Header layout: crc32c | txn | type | table | rid | off | blen | alen.
// The CRC covers everything after itself, including both byte strings.
const recHeader = 4 + 8 + 1 + 4 + 8 + 4 + 4 + 4

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// span narrows a record that carries both a before- and an after-image to
// the bytes that differ, comparing a word at a time. It runs before the log
// mutex is taken. A record already narrowed is left as it is.
func (r *Record) span() error {
	if r.Before == nil || r.After == nil {
		return nil
	}
	b, a := r.Before, r.After
	if len(b) != len(a) {
		return fmt.Errorf("wal: %s of table %d rid %d changes the row's length from %d to %d bytes",
			r.Type, r.Table, r.RID, len(b), len(a))
	}
	lo, hi := 0, len(b)
	for ; lo+8 <= hi; lo += 8 {
		if x := binary.LittleEndian.Uint64(b[lo:]) ^ binary.LittleEndian.Uint64(a[lo:]); x != 0 {
			lo += bits.TrailingZeros64(x) / 8
			break
		}
	}
	for lo < hi && b[lo] == a[lo] {
		lo++
	}
	for ; hi-8 >= lo; hi -= 8 {
		if x := binary.LittleEndian.Uint64(b[hi-8:]) ^ binary.LittleEndian.Uint64(a[hi-8:]); x != 0 {
			hi -= bits.LeadingZeros64(x) / 8
			break
		}
	}
	for hi > lo && b[hi-1] == a[hi-1] {
		hi--
	}
	r.Off += uint32(lo)
	r.Before, r.After = b[lo:hi:hi], a[lo:hi:hi]
	return nil
}

// patch writes span over row at off: an after-span redoes an update, a
// before-span undoes it.
func patch(row []byte, off uint32, span []byte) error {
	if int(off)+len(span) > len(row) {
		return fmt.Errorf("wal: span [%d,%d) outside the %d-byte row", off, int(off)+len(span), len(row))
	}
	copy(row[off:], span)
	return nil
}

// header returns r's encoded header with the checksum still to be filled
// in; r's two byte strings follow it in the log as they are.
func (r *Record) header() (hdr [recHeader]byte) {
	binary.LittleEndian.PutUint64(hdr[4:12], r.Txn)
	hdr[12] = byte(r.Type)
	binary.LittleEndian.PutUint32(hdr[13:17], r.Table)
	binary.LittleEndian.PutUint64(hdr[17:25], r.RID)
	binary.LittleEndian.PutUint32(hdr[25:29], r.Off)
	binary.LittleEndian.PutUint32(hdr[29:33], uint32(len(r.Before)))
	binary.LittleEndian.PutUint32(hdr[33:37], uint32(len(r.After)))
	return hdr
}

// recordLen reads the encoded length of the record whose header starts buf,
// avail being the number of log bytes from there to the end of the log. It
// fails with ErrTruncated when the log ends mid-record.
func recordLen(buf []byte, avail int) (int, error) {
	if avail < recHeader {
		return 0, fmt.Errorf("wal: record header cut at %d bytes: %w", avail, ErrTruncated)
	}
	nb := int(binary.LittleEndian.Uint32(buf[29:33]))
	na := int(binary.LittleEndian.Uint32(buf[33:37]))
	total := recHeader + nb + na
	if nb < 0 || na < 0 || total < recHeader || total > avail {
		return 0, fmt.Errorf("wal: record body cut (%d of %d bytes): %w", avail, total, ErrTruncated)
	}
	return total, nil
}

// parseRecord decodes raw, exactly one encoded record; the record's byte
// strings alias raw. With verify set it checks the checksum, and that a
// record carrying both strings carries them at one length, and fails with
// ErrCorrupt otherwise.
func parseRecord(raw []byte, verify bool) (Record, error) {
	nb := int(binary.LittleEndian.Uint32(raw[29:33]))
	if verify {
		if crc32.Checksum(raw[4:], castagnoli) != binary.LittleEndian.Uint32(raw[0:4]) {
			return Record{}, fmt.Errorf("wal: checksum mismatch: %w", ErrCorrupt)
		}
		if na := len(raw) - recHeader - nb; nb != 0 && na != 0 && nb != na {
			return Record{}, fmt.Errorf("wal: spans of %d and %d bytes: %w", nb, na, ErrCorrupt)
		}
	}
	r := Record{
		Txn:   binary.LittleEndian.Uint64(raw[4:12]),
		Type:  RecType(raw[12]),
		Table: binary.LittleEndian.Uint32(raw[13:17]),
		RID:   binary.LittleEndian.Uint64(raw[17:25]),
		Off:   binary.LittleEndian.Uint32(raw[25:29]),
	}
	if nb > 0 {
		r.Before = raw[recHeader : recHeader+nb : recHeader+nb]
	}
	if recHeader+nb < len(raw) {
		r.After = raw[recHeader+nb:]
	}
	return r, nil
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

// segSize is the number of log bytes a segment holds. The log allocates one
// segment per segSize bytes appended (some fifty default-mix transactions)
// and never moves a byte it has written. A log of a few records costs one
// segment, and tests and fuzzers build thousands of those.
const segSize = 1 << 16

// Log is the engine's log device. The forced prefix survives crashes (the
// log device is separate from the data disks, as the paper assumes); the
// unforced tail is volatile buffer contents.
type Log struct {
	mu sync.Mutex
	// The log is the byte stream [0, size); byte o of it is
	// segs[o/segSize][o%segSize].
	segs [][]byte
	size int
	// published is size again, for readers that must not take mu: the
	// buffer manager reads it on every unpin that dirties a page. buffer and
	// truncate, the two places size changes, keep it in step.
	published atomic.Int64

	forces int64 // forces led by committers (the model's per-txn log I/O)
	syncs  int64 // WAL-rule forces issued by the buffer manager
	waits  int64 // records whose durability a committer waited for
	hook   FaultHook
	group  GroupConfig

	// The durable prefix is [0, forcedLen). At most one force is in
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
	l := &Log{}
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

// write copies p into the log at logical offset off, across however many
// segments it reaches into, allocating those the log does not have yet, and
// returns the offset past it. Called with l.mu held.
func (l *Log) write(off int, p []byte) int {
	for len(p) > 0 {
		if off/segSize == len(l.segs) {
			l.segs = append(l.segs, make([]byte, segSize))
		}
		n := copy(l.segs[off/segSize][off%segSize:], p)
		p, off = p[n:], off+n
	}
	return off
}

// put encodes r at logical offset start and returns the offset past it. The
// checksum is taken over the bytes where they lie, a segment at a time.
// Called with l.mu held.
func (l *Log) put(start int, r *Record) int {
	hdr := r.header()
	end := l.write(l.write(l.write(start, hdr[:]), r.Before), r.After)
	var crc uint32
	for off := start + 4; off < end; {
		seg := l.segs[off/segSize][off%segSize:]
		seg = seg[:min(len(seg), end-off)]
		crc = crc32.Update(crc, castagnoli, seg)
		off += len(seg)
	}
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc)
	l.write(start, sum[:])
	return end
}

// truncate cuts the log back to its first n bytes.
func (l *Log) truncate(n int) {
	l.size = n
	l.published.Store(int64(n))
	l.segs = l.segs[:(n+segSize-1)/segSize]
}

// buffer encodes r at the end of the log and returns the logical offset at
// which it starts. Called with l.mu held.
func (l *Log) buffer(r *Record) int {
	start := l.size
	l.size = l.put(start, r)
	l.published.Store(int64(l.size))
	return start
}

// Append writes one record and returns the offset it starts at, its name.
// Data records are only buffered. Commit, abort, and prepare records are
// durable when Append returns — force-then-release, what a two-phase-commit
// vote or decision needs — and a failed force leaves no trace of them: the
// record is voided in the buffer, so no later force or crash can make an
// unacknowledged vote or decision durable.
func (l *Log) Append(r Record) (int64, error) {
	if err := r.span(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if !r.Type.forced() {
		return int64(l.buffer(&r)), nil
	}
	if l.failed != nil {
		return 0, l.failed
	}
	start := l.buffer(&r)
	if err := l.waitDurable(l.size); err != nil {
		// Nothing past the watermark is durable and a failed log forces
		// nothing more, so the bytes can still be rewritten where they were
		// buffered: as the abort of transaction 0, which no transaction is
		// and recovery ignores, at the same length.
		l.put(start, &Record{Type: RecAbort, Off: r.Off, Before: r.Before, After: r.After})
		return 0, err
	}
	return int64(start), nil
}

// PreCommit buffers a commit or abort record without forcing and returns
// the offset it ends at. After it the transaction may publish its writes
// and release its locks; it acknowledges once WaitDurable(end) returns.
// The log is prefix-durable, so a later transaction that read those writes
// can never be durable, or acknowledged, ahead of this one.
func (l *Log) PreCommit(r Record) (int64, error) {
	if err := r.span(); err != nil {
		return 0, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.failed != nil {
		return 0, l.failed
	}
	l.buffer(&r)
	if r.Type == RecCommit {
		l.commitEnd = l.size
	}
	return int64(l.size), nil
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
		upto := l.size
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

// lead forces the log up to offset upto, counting the force in *count. It
// drops l.mu around the device call, so appends proceed during the wait,
// and retries a transient device error in place; any other error, or a
// transient one that persists, latches the log failed. Called with l.mu
// held and no force in flight.
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

// ForceTo makes the first off bytes of the log durable: the WAL rule, called
// by the buffer manager before it writes back a page last dirtied when the
// log was off bytes long. An offset inside the durable prefix costs nothing —
// no device call, and no error even from a log latched failed, because what
// the page needs is on the device already. Otherwise the caller waits out the
// force in flight or leads one, of everything buffered, counted in Syncs. An
// off past the end of the log (one noted before a crash cut the tail) means
// the whole log.
func (l *Log) ForceTo(off int64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	// Every wait drops l.mu and the log may be cut meanwhile: clamp each turn.
	for int64(l.forcedLen) < min(off, int64(l.size)) {
		if l.failed != nil {
			return l.failed
		}
		if l.forcing {
			l.durable.Wait()
			continue
		}
		if err := l.lead(l.size, &l.syncs); err != nil {
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

// Syncs returns the number of forces ForceTo led: WAL-rule forces, of log the
// page being written back needed and no committer had forced yet.
func (l *Log) Syncs() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncs
}

// Size returns the log size in bytes. It takes no lock.
func (l *Log) Size() int64 { return l.published.Load() }

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
	tail := l.size - l.forcedLen
	if tail <= 0 {
		return
	}
	keep := l.forcedLen + int(r.Int63n(int64(tail)+1))
	if keep > l.forcedLen && r.Bernoulli(0.5) {
		off := l.forcedLen + int(r.Int63n(int64(keep-l.forcedLen)))
		l.segs[off/segSize][off%segSize] ^= byte(1) << uint(r.Int63n(8))
	}
	l.truncate(keep)
	l.forcedLen = keep
}

// cursor walks a log's records where they lie, from off to end.
type cursor struct {
	segs     [][]byte
	off, end int
}

// bytes returns the n log bytes at the cursor: in place when one segment
// holds them, as a private copy when they straddle a boundary.
func (c *cursor) bytes(n int) []byte {
	pos := c.off % segSize
	if pos+n <= segSize {
		return c.segs[c.off/segSize][pos : pos+n : pos+n]
	}
	out := make([]byte, 0, n)
	for off := c.off; len(out) < n; off = c.off + len(out) {
		seg := c.segs[off/segSize][off%segSize:]
		out = append(out, seg[:min(len(seg), n-len(out))]...)
	}
	return out
}

// next decodes the record at the cursor and steps past it; the caller has
// checked that the cursor is short of end. The record's byte strings alias
// what bytes returned. It fails with ErrTruncated when the log ends
// mid-record and, with verify set, ErrCorrupt when the record is damaged.
func (c *cursor) next(verify bool) (Record, error) {
	avail := c.end - c.off
	total, err := recordLen(c.bytes(min(avail, recHeader)), avail)
	if err != nil {
		return Record{}, err
	}
	r, err := parseRecord(c.bytes(total), verify)
	if err != nil {
		return Record{}, err
	}
	c.off += total
	return r, nil
}

// walk calls visit on each record from the start of the log, checksums
// verified and byte strings aliasing the log, up to its first damaged
// record. It returns the valid prefix length, the log's length, and the
// error that ended the walk (nil when the whole log parsed).
func (l *Log) walk(visit func(Record)) (int, int, error) {
	l.mu.Lock()
	c := cursor{segs: l.segs, end: l.size}
	l.mu.Unlock()
	for c.off < c.end {
		r, err := c.next(true)
		if err != nil {
			return c.off, c.end, err
		}
		visit(r)
	}
	return c.off, c.end, nil
}

// Scan decodes the log's valid prefix as walk does, into records whose byte
// strings are private copies (for tests; recovery reads the log in place).
func (l *Log) Scan() ([]Record, int64, error) {
	var out []Record
	valid, _, err := l.walk(func(r Record) {
		r.Before, r.After = bytes.Clone(r.Before), bytes.Clone(r.After)
		out = append(out, r)
	})
	return out, int64(valid), err
}

// beginRecovery walks the log (walk) and cuts it back to its valid prefix,
// returning the prefix length, how many bytes were cut, and the walk's
// error. What recovery read back is on the device, so the whole prefix
// counts as durable from here on, and a latched failure is cleared: the
// machine has restarted.
func (l *Log) beginRecovery(visit func(Record)) (int, int64, error) {
	valid, end, scanErr := l.walk(visit)
	l.mu.Lock()
	l.truncate(valid)
	l.forcedLen, l.commitEnd, l.failed = valid, min(l.commitEnd, valid), nil
	l.mu.Unlock()
	return valid, int64(end - valid), scanErr
}

// Applier is one table as recovery sees it: the rows the durable pages
// hold, read and rewritten by record id.
type Applier interface {
	// Read returns the row at rid as the table holds it now, nil when there
	// is none. The slice is the applier's own scratch, valid until its next
	// call; the caller may write into it and hand it back to Apply.
	Read(rid uint64) ([]byte, error)
	// Apply makes image the row's content at rid; a nil image means the
	// row must be absent. Implementations must be idempotent and
	// tolerant of the durable page already holding the target state.
	Apply(rid uint64, image []byte) error
}

// Redo writes one data record of a transaction now known to have committed
// over the table as it stands: an in-doubt branch's record, once the
// coordinator's commit decision arrives. The branch's rows have been locked
// since recovery rolled them back, so an update's after-span lands on the
// row its before-span came from.
func Redo(a Applier, r Record) error { return apply(a, r, false) }

// Undo takes the data record Append put at offset at back off its row
// through a, by the step recovery undoes a loser's record with: a rollback's
// step, so the log is the only copy of a before-image. The row must be as the
// record left it (row locks, newest first). An offset outside the log, or
// one naming a commit, abort or prepare record, is an error.
func (l *Log) Undo(at int64, a Applier) error {
	l.mu.Lock()
	c := cursor{segs: l.segs, off: int(at), end: l.size}
	l.mu.Unlock()
	if at < 0 || c.off >= c.end {
		return fmt.Errorf("wal: undo at offset %d of a %d-byte log", at, c.end)
	}
	r, err := c.next(false) // written, and never moved: read in place
	if err == nil && r.Type > RecDelete {
		err = fmt.Errorf("wal: undo at offset %d names a %s record", at, r.Type)
	}
	if err != nil {
		return err
	}
	return apply(a, r, true)
}

// apply runs one record's redo or undo step on its row alone through a. An
// update's row is patched where Read put it, in a's scratch, then applied.
func apply(a Applier, r Record, undo bool) (err error) {
	f := rowFold{rowKey: rowKey{table: r.Table, rid: r.RID}, known: true, own: true}
	if r.Type == RecUpdate {
		f.image, err = a.Read(r.RID)
	}
	if err == nil {
		err = f.step(a, r, undo)
	}
	if err != nil {
		return err
	}
	return a.Apply(r.RID, f.image)
}

// RecoverStats reports what recovery did.
type RecoverStats struct {
	Records            int64 // records in the valid prefix
	Bytes              int64 // length of the valid prefix
	Applied            int64 // rows materialized
	SkippedUncommitted int64 // records of uncommitted/aborted transactions
	TruncatedBytes     int64 // log bytes discarded past the valid prefix
	TailCorrupt        bool  // truncation was due to a checksum mismatch
}
