// Package wal implements the engine's write-ahead log: physiological
// records that say what changed in a row, commit/abort/prepare records, and
// recovery that folds each row's records, in log order, over the row the
// durable page store still holds.
//
// Record format. A record is a header and up to two byte strings of one
// length, and its name is the offset it starts at: Append returns it, and
// Undo takes it. The header is a crc32c over everything after it, one kind
// byte, and uvarints: the txn, the row's rid, the span's offset in the row
// and, when the record carries a byte string, their one length. The kind
// byte holds the record type, the table when it is below 15 (a larger one
// follows as a uvarint), and a void bit; which strings are present follows
// from the type — an insert's after-image, a delete's before-image, both of
// an update, none of a commit, abort or prepare — and a record carrying
// others names them in one byte more. Every field is context-free, so any
// record decodes from its own offset: a default-mix data record's header is
// about 15 bytes and a commit's 10.
//
// An insert carries the row's full after-image, a delete its full
// before-image. An update carries the changed byte span: callers hand Append
// the full before- and after-image (Record.Before/After, Off 0), the log
// trims the prefix and suffix the two share, and what is written — and what
// a reader gets back — is the offset of the first byte that differs and the
// before and after bytes from there to the last byte that differs. A
// New-Order's Stock update logs bytes 8–28 of 306 twice instead of 306
// twice. An update never changes a row's length; Append refuses one that
// would.
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
	"math"
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

// Header layout: crc32c | kind | [shape] | [table] | txn | rid | off | [len]:
// a 4-byte checksum, one or two bytes, and uvarints. The CRC covers
// everything after itself, including both byte strings.
//
// The kind byte is void<<7 | table<<3 | form. A table of tableEsc or more is
// written as tableEsc and follows as a uvarint. A form below formShape is the
// record type, and the record carries the strings typeShape gives that type;
// formShape says a shape byte follows, the type with the strings' bits. len,
// the strings' one length, is present when the record carries either.
const (
	kindVoid    = 0x80
	tableEsc    = 15
	formShape   = 7
	shapeBefore = 1 << 3
	shapeAfter  = 1 << 4

	// maxHeader bounds a header's length: a decoder never reads further to
	// find where the record's strings begin.
	maxHeader = 4 + 1 + 1 + binary.MaxVarintLen32 + 2*binary.MaxVarintLen64 + 2*binary.MaxVarintLen32
)

// typeShape is the strings a record of each type carries unless its header
// says otherwise.
var typeShape = [...]byte{
	RecInsert: shapeAfter,
	RecUpdate: shapeBefore | shapeAfter,
	RecDelete: shapeBefore,
	RecCommit: 0, RecAbort: 0, RecPrepare: 0,
}

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

// header encodes r's header into hdr, the checksum still to be filled in,
// and returns its length; r's byte strings follow it in the log as they are.
// r's type is one of the six, and a record carrying both strings carries
// them at one length: Append sees to both.
func (r *Record) header(hdr *[maxHeader]byte) int {
	var shape byte
	if len(r.Before) > 0 {
		shape |= shapeBefore
	}
	if len(r.After) > 0 {
		shape |= shapeAfter
	}
	tab := byte(min(r.Table, tableEsc))
	n := 5
	if shape == typeShape[r.Type] {
		hdr[4] = tab<<3 | byte(r.Type)
	} else {
		hdr[4] = tab<<3 | formShape
		hdr[5] = byte(r.Type) | shape
		n++
	}
	if tab == tableEsc {
		n += binary.PutUvarint(hdr[n:], uint64(r.Table))
	}
	n += binary.PutUvarint(hdr[n:], r.Txn)
	n += binary.PutUvarint(hdr[n:], r.RID)
	n += binary.PutUvarint(hdr[n:], uint64(r.Off))
	if shape != 0 {
		n += binary.PutUvarint(hdr[n:], uint64(max(len(r.Before), len(r.After))))
	}
	return n
}

// frame is a record as a reader finds it in the log: the record, whether
// Append voided it, and the lengths of its header and its two byte strings.
type frame struct {
	Record
	void         bool
	hlen, nb, na int
}

// size returns the number of log bytes the record takes.
func (f *frame) size() int { return f.hlen + f.nb + f.na }

// readHeader decodes the header at the front of buf, avail being the number
// of log bytes from there to the end of the log; it reads at most maxHeader
// of them. It fails with ErrTruncated when the log ends mid-record and with
// ErrCorrupt when the header is one no encoder writes.
func readHeader(buf []byte, avail int) (frame, error) {
	buf = buf[:min(len(buf), avail, maxHeader)]
	if len(buf) < 6 { // the shortest record takes 8
		return frame{}, fmt.Errorf("wal: record header cut at %d bytes: %w", avail, ErrTruncated)
	}
	var f frame
	kind := buf[4]
	f.void = kind&kindVoid != 0
	form, shape, n := kind&7, byte(0), 5
	if form == formShape {
		form, shape, n = buf[5]&7, buf[5]&^7, 6
	} else if int(form) < len(typeShape) {
		shape = typeShape[form]
	}
	if int(form) >= len(typeShape) || shape&^(shapeBefore|shapeAfter) != 0 {
		return frame{}, fmt.Errorf("wal: record kind %#x: %w", kind, ErrCorrupt)
	}
	f.Type = RecType(form)
	// field reads the uvarint at buf[n:], which must not exceed lim. One
	// that runs past buf is cut by the end of the log, or, when buf stops
	// short of it, longer than any header.
	var err error
	field := func(lim uint64) uint64 {
		if err != nil {
			return 0
		}
		v, k := binary.Uvarint(buf[n:])
		switch {
		case k == 0 && len(buf) == avail:
			err = fmt.Errorf("wal: record header cut at %d bytes: %w", avail, ErrTruncated)
		case k <= 0 || v > lim:
			err = fmt.Errorf("wal: record header field at byte %d out of range: %w", n, ErrCorrupt)
		}
		n += max(k, 0)
		return v
	}
	table := uint64(kind >> 3 & tableEsc)
	if table == tableEsc {
		table = field(math.MaxUint32)
	}
	f.Table = uint32(table)
	f.Txn = field(math.MaxUint64)
	f.RID = field(math.MaxUint64)
	f.Off = uint32(field(math.MaxUint32))
	var slen int
	if shape != 0 {
		slen = int(field(math.MaxUint32))
	}
	if err != nil {
		return frame{}, err
	}
	f.hlen = n
	if shape&shapeBefore != 0 {
		f.nb = slen
	}
	if shape&shapeAfter != 0 {
		f.na = slen
	}
	if total := f.size(); total > avail {
		return frame{}, fmt.Errorf("wal: record body cut (%d of %d bytes): %w", avail, total, ErrTruncated)
	}
	return f, nil
}

// attach checks raw, the frame's whole record, against its checksum when
// verify is set, failing with ErrCorrupt, and points the record's byte
// strings into raw.
func (f *frame) attach(raw []byte, verify bool) error {
	if verify && crc32.Checksum(raw[4:], castagnoli) != binary.LittleEndian.Uint32(raw) {
		return fmt.Errorf("wal: checksum mismatch: %w", ErrCorrupt)
	}
	at := f.hlen
	if f.nb > 0 {
		f.Before = raw[at : at+f.nb : at+f.nb]
		at += f.nb
	}
	if f.na > 0 {
		f.After = raw[at : at+f.na : at+f.na]
	}
	return nil
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

// put encodes r at logical offset start and returns the offset past it.
// Called with l.mu held.
func (l *Log) put(start int, r *Record) int {
	var hdr [maxHeader]byte
	n := r.header(&hdr)
	end := l.write(l.write(l.write(start, hdr[:n]), r.Before), r.After)
	l.seal(start, end)
	return end
}

// seal writes the checksum of the record at [start, end), taken over the
// bytes where they lie, a segment at a time. Called with l.mu held.
func (l *Log) seal(start, end int) {
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

// check refuses a record of no known type and narrows one carrying two
// images to its span; it runs before the log mutex is taken.
func (r *Record) check() error {
	if int(r.Type) >= len(typeShape) {
		return fmt.Errorf("wal: record of unknown type %s", r.Type)
	}
	return r.span()
}

// Append writes one record and returns the offset it starts at, its name.
// Data records are only buffered. Commit, abort, and prepare records are
// durable when Append returns — force-then-release, what a two-phase-commit
// vote or decision needs — and a failed force leaves no trace of them: the
// record is voided in the buffer, so no later force or crash can make an
// unacknowledged vote or decision durable.
func (l *Log) Append(r Record) (int64, error) {
	if err := r.check(); err != nil {
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
	end := l.size
	if err := l.waitDurable(end); err != nil {
		// Nothing past the watermark is durable and a failed log forces
		// nothing more, so the record can still be voided where it was
		// buffered: one bit of its kind byte, which every reader passes
		// over, and a new checksum. Its length, and so every record appended
		// behind it meanwhile, stays where it is.
		l.segs[(start+4)/segSize][(start+4)%segSize] |= kindVoid
		l.seal(start, end)
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
	if err := r.check(); err != nil {
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
// mid-record and ErrCorrupt when the header is malformed or, with verify
// set, the record fails its checksum.
func (c *cursor) next(verify bool) (frame, error) {
	avail := c.end - c.off
	f, err := readHeader(c.bytes(min(avail, maxHeader)), avail)
	if err == nil {
		err = f.attach(c.bytes(f.size()), verify)
	}
	if err != nil {
		return frame{}, err
	}
	c.off += f.size()
	return f, nil
}

// walk calls visit on each record from the start of the log but the void
// ones, checksums verified and byte strings aliasing the log, up to its
// first damaged record. It returns the valid prefix length, the log's length, and the
// error that ended the walk (nil when the whole log parsed).
func (l *Log) walk(visit func(Record)) (int, int, error) {
	l.mu.Lock()
	c := cursor{segs: l.segs, end: l.size}
	l.mu.Unlock()
	for c.off < c.end {
		f, err := c.next(true)
		if err != nil {
			return c.off, c.end, err
		}
		if !f.void {
			visit(f.Record)
		}
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
// one naming a commit, abort, prepare or void record, is an error.
func (l *Log) Undo(at int64, a Applier) error {
	l.mu.Lock()
	c := cursor{segs: l.segs, off: int(at), end: l.size}
	l.mu.Unlock()
	if at < 0 || c.off >= c.end {
		return fmt.Errorf("wal: undo at offset %d of a %d-byte log", at, c.end)
	}
	f, err := c.next(false) // written, and never moved: read in place
	if err == nil && (f.Type > RecDelete || f.void) {
		err = fmt.Errorf("wal: undo at offset %d names a %s record (void %t)", at, f.Type, f.void)
	}
	if err != nil {
		return err
	}
	return apply(a, f.Record, true)
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
