// Package storage provides the engine's lowest layer: an in-memory page
// device standing in for a disk, and slotted heap files of fixed-length
// records on top of it.
//
// The paper is a modeling study and never built a system; this engine is
// the substrate it models — a page-based storage manager whose buffer
// behaviour can be measured and cross-validated against the trace-driven
// simulation. The "disk" is a page device with explicit flush semantics so
// crash/recovery can be exercised deterministically, and the device
// boundary (DiskIO) is injectable so the fault package can subject the
// engine to torn writes, bit flips, and power loss.
//
// Every durable page image carries a CRC32-C trailer, and each flush
// writes the journal mirror before the in-place copy. A write torn by
// power loss therefore fails its checksum and is repaired from whichever
// copy survived intact; corruption that defeats both copies is detected
// and reported, never silently served.
package storage

import (
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
)

// PageID identifies a page in the store. IDs are allocated densely from 0.
type PageID uint64

// InvalidPage is the zero-value sentinel for "no page".
const InvalidPage = PageID(^uint64(0))

// ChecksumLen is the per-page checksum trailer the Store appends to every
// physical image: a physical image is PageSize+ChecksumLen bytes. It lives
// outside the logical page, so heap layout and the paper's tuples-per-page
// accounting are unaffected.
const ChecksumLen = 4

const crcTrailer = ChecksumLen

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// StoreStats counts physical I/O and integrity events.
type StoreStats struct {
	Reads    int64
	Writes   int64
	Detected int64 // checksum mismatches observed on the primary copy
	Repaired int64 // pages served (and rewritten) from the journal mirror
}

// Store is the simulated disk seen by the buffer manager: checksummed
// pages over a DiskIO device with copy-on-flush semantics. Reads return
// the durable image; writes happen only through Flush (the buffer manager
// owns the volatile images). All methods are safe for concurrent use.
//
// The Store holds no lock of its own: DiskIO implementations are
// concurrency-safe by contract, the counters are atomics, and the
// physical-image scratch comes from a pool, so reads, flushes and
// allocations all proceed in parallel — a device that takes a millisecond
// per call is never waited for by a call to another page. Concurrent
// Read/Flush of the SAME page are the caller's to serialize — the buffer
// manager does: a page has at most one frame, and a frame has at most one
// read or write-back in flight (see bufmgr's frame life cycle).
type Store struct {
	disk     DiskIO
	pageSize int
	stats    struct {
		reads    atomic.Int64
		writes   atomic.Int64
		detected atomic.Int64
		repaired atomic.Int64
	}
	// physPool recycles physical-image scratch buffers for Read/Flush;
	// without it every buffer-pool miss and write-back would
	// heap-allocate a page-sized buffer. Pooled (not a single field)
	// because page I/O runs concurrently.
	physPool sync.Pool
	// zeroPhys is the sealed all-zero image every Allocate writes; the
	// image is identical for all pages, so it is built once.
	zeroPhys []byte
}

// NewStore creates a store with the given page size over a private
// fault-free in-memory device.
func NewStore(pageSize int) (*Store, error) {
	return NewStoreOn(NewMemDisk(), pageSize)
}

// NewStoreOn creates a store over an existing device (typically a fault
// injector wrapping a MemDisk).
func NewStoreOn(disk DiskIO, pageSize int) (*Store, error) {
	if pageSize <= 0 {
		return nil, fmt.Errorf("storage: page size %d must be positive: %w",
			pageSize, ErrInvalidArgument)
	}
	if disk == nil {
		return nil, fmt.Errorf("storage: nil disk: %w", ErrInvalidArgument)
	}
	s := &Store{disk: disk, pageSize: pageSize}
	s.physPool.New = func() any {
		b := make([]byte, s.physSize())
		return &b
	}
	s.zeroPhys = make([]byte, s.physSize())
	seal(s.zeroPhys, s.zeroPhys[:s.pageSize])
	return s, nil
}

// PageSize returns the logical page size in bytes.
func (s *Store) PageSize() int { return s.pageSize }

// physSize is the on-device image size (logical page + checksum trailer).
func (s *Store) physSize() int { return s.pageSize + crcTrailer }

// seal copies the logical image into phys and appends its CRC32-C.
func seal(phys, logical []byte) {
	n := copy(phys, logical)
	crc := crc32.Checksum(phys[:n], castagnoli)
	phys[n] = byte(crc)
	phys[n+1] = byte(crc >> 8)
	phys[n+2] = byte(crc >> 16)
	phys[n+3] = byte(crc >> 24)
}

// checkOK verifies the physical image's trailer.
func checkOK(phys []byte) bool {
	n := len(phys) - crcTrailer
	crc := crc32.Checksum(phys[:n], castagnoli)
	got := uint32(phys[n]) | uint32(phys[n+1])<<8 | uint32(phys[n+2])<<16 | uint32(phys[n+3])<<24
	return crc == got
}

// scratch borrows a physical-image buffer from the pool; putScratch
// returns it.
func (s *Store) scratch() *[]byte { return s.physPool.Get().(*[]byte) }

func (s *Store) putScratch(b *[]byte) { s.physPool.Put(b) }

// Allocate creates a new zeroed page and returns its ID. Both physical
// copies are initialized with a valid checksum so the page is readable
// immediately. The device hands out the id; nobody else can name the page
// until Allocate returns it.
func (s *Store) Allocate() (PageID, error) {
	id := s.disk.Allocate(s.physSize())
	if err := s.disk.Write(id, AreaJournal, s.zeroPhys); err != nil {
		return 0, fmt.Errorf("storage: init journal of page %d: %w", id, err)
	}
	if err := s.disk.Write(id, AreaData, s.zeroPhys); err != nil {
		return 0, fmt.Errorf("storage: init page %d: %w", id, err)
	}
	return id, nil
}

// Read copies the durable image of page id into buf (len must equal the
// page size). It counts as one physical read. A checksum mismatch on the
// in-place copy falls back to the journal mirror; when the mirror is
// intact the page is repaired in place, otherwise a CorruptPageError is
// returned — corruption is always detected, never silently served.
func (s *Store) Read(id PageID, buf []byte) error {
	if len(buf) != s.pageSize {
		return fmt.Errorf("storage: read buffer is %d bytes, want %d: %w",
			len(buf), s.pageSize, ErrInvalidArgument)
	}
	pb := s.scratch()
	defer s.putScratch(pb)
	phys := *pb
	if err := s.disk.Read(id, AreaData, phys); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	s.stats.reads.Add(1)
	if checkOK(phys) {
		copy(buf, phys[:s.pageSize])
		return nil
	}
	s.stats.detected.Add(1)
	// A device error on the mirror is a failed read like any other (a
	// transient one is the caller's to retry), not proof of corruption.
	if err := s.disk.Read(id, AreaJournal, phys); err != nil {
		return fmt.Errorf("storage: read journal of page %d: %w", id, err)
	}
	if !checkOK(phys) {
		return &CorruptPageError{ID: id}
	}
	// The mirror survived: serve it and repair the primary copy. A failed
	// repair write is not fatal — the mirror still holds the good image.
	if werr := s.disk.Write(id, AreaData, phys); werr == nil {
		s.stats.repaired.Add(1)
	}
	copy(buf, phys[:s.pageSize])
	return nil
}

// Flush makes buf the durable image of page id, writing the journal
// mirror before the in-place copy so a torn flush always leaves one valid
// image. It counts as one physical write (the sequential mirror write is
// not charged, matching the model's random-I/O accounting).
func (s *Store) Flush(id PageID, buf []byte) error {
	if len(buf) != s.pageSize {
		return fmt.Errorf("storage: flush buffer is %d bytes, want %d: %w",
			len(buf), s.pageSize, ErrInvalidArgument)
	}
	pb := s.scratch()
	defer s.putScratch(pb)
	phys := *pb
	seal(phys, buf)
	if err := s.disk.Write(id, AreaJournal, phys); err != nil {
		return fmt.Errorf("storage: journal page %d: %w", id, err)
	}
	if err := s.disk.Write(id, AreaData, phys); err != nil {
		return fmt.Errorf("storage: flush page %d: %w", id, err)
	}
	s.stats.writes.Add(1)
	return nil
}

// Pages returns the number of allocated pages.
func (s *Store) Pages() int64 { return s.disk.Pages() }

// Stats returns a copy of the I/O and integrity counters.
func (s *Store) Stats() StoreStats {
	return StoreStats{
		Reads:    s.stats.reads.Load(),
		Writes:   s.stats.writes.Load(),
		Detected: s.stats.detected.Load(),
		Repaired: s.stats.repaired.Load(),
	}
}

// VerifyResult summarizes a Verify pass.
type VerifyResult struct {
	Checked  int64
	Repaired int64    // pages restored from the journal mirror
	Corrupt  []PageID // pages with no intact copy (detected, unrecoverable)
}

// Verify checks the checksum of every listed page, repairing from the
// journal mirror where possible and reporting pages with no intact copy.
// Only a device error (not corruption) yields a non-nil error.
func (s *Store) Verify(ids []PageID) (VerifyResult, error) {
	var res VerifyResult
	buf := make([]byte, s.pageSize)
	for _, id := range ids {
		before := s.Stats().Repaired
		err := s.Read(id, buf)
		switch {
		case err == nil:
			res.Checked++
			res.Repaired += s.Stats().Repaired - before
		case errors.Is(err, ErrCorruptPage):
			res.Checked++
			res.Corrupt = append(res.Corrupt, id)
		default:
			return res, err
		}
	}
	return res, nil
}
