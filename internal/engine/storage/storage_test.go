package storage

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"tpccmodel/internal/rng"
)

// mustStore and mustAlloc keep test setup terse now that the storage
// constructors return errors instead of panicking on misuse.
func mustStore(t testing.TB, pageSize int) *Store {
	t.Helper()
	s, err := NewStore(pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustAlloc(t testing.TB, s *Store) PageID {
	t.Helper()
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// directPager is a write-through Pager over the store, for testing the
// heap layer without a buffer manager.
type directPager struct {
	store *Store
	buf   []byte
}

func newDirectPager(s *Store) *directPager {
	return &directPager{store: s, buf: make([]byte, s.PageSize())}
}

func (p *directPager) With(id PageID, dirty bool, fn func(page []byte)) error {
	if err := p.store.Read(id, p.buf); err != nil {
		return err
	}
	fn(p.buf)
	if dirty {
		return p.store.Flush(id, p.buf)
	}
	return nil
}

func (p *directPager) Pin(id PageID) (Pinned, error) {
	if err := p.store.Read(id, p.buf); err != nil {
		return Pinned{}, err
	}
	return Pinned{Data: p.buf, Token: id}, nil
}

func (p *directPager) Unpin(pg Pinned, dirty bool) {
	if dirty {
		if err := p.store.Flush(pg.Token.(PageID), pg.Data); err != nil {
			panic(err)
		}
	}
}

func (p *directPager) Allocate() (PageID, error) { return p.store.Allocate() }

func TestStoreReadWrite(t *testing.T) {
	s := mustStore(t, 4096)
	id := mustAlloc(t, s)
	buf := make([]byte, 4096)
	if err := s.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}
	buf[0], buf[4095] = 0xAB, 0xCD
	if err := s.Flush(id, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 4096)
	if err := s.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, got) {
		t.Error("flushed image not read back")
	}
	reads, writes := s.IOCounts()
	if reads != 2 || writes != 1 {
		t.Errorf("IO counts = %d reads, %d writes", reads, writes)
	}
}

func TestStoreErrors(t *testing.T) {
	s := mustStore(t, 1024)
	buf := make([]byte, 1024)
	if err := s.Read(PageID(99), buf); err == nil {
		t.Error("read of unallocated page should fail")
	}
	if err := s.Flush(PageID(99), buf); err == nil {
		t.Error("flush of unallocated page should fail")
	}
	id := mustAlloc(t, s)
	if err := s.Read(id, make([]byte, 10)); err == nil {
		t.Error("short buffer should fail")
	}
}

func TestSlotsPerPage(t *testing.T) {
	// With the Table 1 tuple lengths and 4K pages, slotted capacity must
	// come within one tuple of the paper's integral-fit numbers (the
	// header and bitmap cost at most one slot).
	cases := []struct {
		recLen int
		paper  int
	}{
		{89, 46}, {95, 43}, {655, 6}, {306, 13}, {82, 49},
		{24, 170}, {8, 512}, {54, 75}, {46, 89},
	}
	for _, c := range cases {
		got := SlotsPerPage(4096, c.recLen)
		// The slotted layout pays a 4-byte header plus a 1-bit-per-slot
		// bitmap, so capacity is the paper's count minus at most ~2%.
		if got > c.paper || float64(got) < float64(c.paper)*0.97 {
			t.Errorf("SlotsPerPage(4096, %d) = %d, paper says %d", c.recLen, got, c.paper)
		}
	}
	if SlotsPerPage(4096, 0) != 0 || SlotsPerPage(4, 100) != 0 {
		t.Error("degenerate cases should be 0")
	}
}

func TestRIDPackRoundTrip(t *testing.T) {
	f := func(pageRaw uint32, slot uint16) bool {
		r := RID{Page: PageID(pageRaw), Slot: slot}
		return UnpackRID(r.Pack()) == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHeapInsertReadUpdateDelete(t *testing.T) {
	s := mustStore(t, 512)
	h, err := NewHeapFile("t", newDirectPager(s), 512, 100)
	if err != nil {
		t.Fatal(err)
	}
	rec := bytes.Repeat([]byte{7}, 100)
	rid, err := h.Insert(rec)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 100)
	if err := h.Read(rid, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, out) {
		t.Error("read back mismatch")
	}
	rec2 := bytes.Repeat([]byte{9}, 100)
	if err := h.Update(rid, rec2); err != nil {
		t.Fatal(err)
	}
	h.Read(rid, out)
	if !bytes.Equal(rec2, out) {
		t.Error("update not visible")
	}
	if err := h.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if err := h.Read(rid, out); err == nil {
		t.Error("read of deleted record should fail")
	}
	if err := h.Delete(rid); err == nil {
		t.Error("double delete should fail")
	}
	if h.Live() != 0 {
		t.Errorf("Live = %d", h.Live())
	}
}

func TestHeapFillsPagesDensely(t *testing.T) {
	s := mustStore(t, 512)
	h, _ := NewHeapFile("t", newDirectPager(s), 512, 100)
	slots := h.Slots()
	if slots < 4 {
		t.Fatalf("expected >=4 slots in 512B page, got %d", slots)
	}
	var rids []RID
	for i := 0; i < slots*3; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.PageCount() != 3 {
		t.Errorf("PageCount = %d, want 3 (dense fill)", h.PageCount())
	}
	// Slot reuse after delete.
	if err := h.Delete(rids[1]); err != nil {
		t.Fatal(err)
	}
	rid, err := h.Insert(bytes.Repeat([]byte{0xEE}, 100))
	if err != nil {
		t.Fatal(err)
	}
	if h.PageCount() != 3 {
		t.Errorf("insert after delete allocated page %d", rid.Page)
	}
}

// TestDeleteHeldKeepsSlotFromInsert: a slot emptied by DeleteHeld is not
// handed out until Unhold, and is the next one handed out after it — Delete
// is the two together.
func TestDeleteHeldKeepsSlotFromInsert(t *testing.T) {
	s := mustStore(t, 4096)
	h, err := NewHeapFile("t", newDirectPager(s), 4096, 100)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 5; i++ {
		rid, err := h.Insert(bytes.Repeat([]byte{byte(i + 1)}, 100))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := h.DeleteHeld(rids[1]); err != nil {
		t.Fatal(err)
	}
	if h.Live() != 4 {
		t.Errorf("live = %d after DeleteHeld, want 4", h.Live())
	}
	other, err := h.Insert(bytes.Repeat([]byte{9}, 100))
	if err != nil {
		t.Fatal(err)
	}
	if other == rids[1] {
		t.Fatalf("Insert reused the held slot %v", other)
	}
	// The deleter rolls back: the row returns to its slot, intact beside
	// the insert, and letting go of the slot frees nothing.
	if err := h.InsertAt(rids[1], bytes.Repeat([]byte{2}, 100)); err != nil {
		t.Fatal(err)
	}
	h.Unhold(rids[1])
	got := make([]byte, 100)
	if err := h.Read(other, got); err != nil || got[0] != 9 {
		t.Errorf("the insert after a rolled-back delete: %v, byte %d", err, got[0])
	}
	// The deleter commits: the slot is the next one handed out.
	if err := h.DeleteHeld(rids[3]); err != nil {
		t.Fatal(err)
	}
	h.Unhold(rids[3])
	if rid, err := h.Insert(bytes.Repeat([]byte{7}, 100)); err != nil || rid != rids[3] {
		t.Errorf("Insert after Unhold = %v, %v, want the freed slot %v", rid, err, rids[3])
	}
}

func TestHeapScan(t *testing.T) {
	s := mustStore(t, 512)
	h, _ := NewHeapFile("t", newDirectPager(s), 512, 100)
	want := map[RID]byte{}
	for i := 0; i < 10; i++ {
		rid, _ := h.Insert(bytes.Repeat([]byte{byte(i + 1)}, 100))
		want[rid] = byte(i + 1)
	}
	seen := 0
	err := h.Scan(func(rid RID, rec []byte) bool {
		if want[rid] != rec[0] {
			t.Errorf("scan at %s: byte %d, want %d", rid, rec[0], want[rid])
		}
		seen++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != 10 {
		t.Errorf("scanned %d records", seen)
	}
	// Early stop.
	n := 0
	h.Scan(func(RID, []byte) bool { n++; return n < 3 })
	if n != 3 {
		t.Errorf("early stop scanned %d", n)
	}
}

func TestHeapInsertAtForRedo(t *testing.T) {
	s := mustStore(t, 512)
	h, _ := NewHeapFile("t", newDirectPager(s), 512, 100)
	rid, _ := h.Insert(bytes.Repeat([]byte{1}, 100))
	// Redo into a fresh heap reattached over the same store (the page
	// list is durable catalog metadata): same RID must land.
	h2, _ := NewHeapFile("t", newDirectPager(s), 512, 100)
	if err := h2.AttachPages(h.PageIDs()); err != nil {
		t.Fatal(err)
	}
	if h2.Live() != 1 {
		t.Fatalf("Live after attach = %d, want 1", h2.Live())
	}
	if err := h2.InsertAt(rid, bytes.Repeat([]byte{2}, 100)); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, 100)
	if err := h2.Read(rid, out); err != nil {
		t.Fatal(err)
	}
	if out[0] != 2 {
		t.Error("InsertAt image not visible")
	}
	// Idempotent re-application.
	if err := h2.InsertAt(rid, bytes.Repeat([]byte{3}, 100)); err != nil {
		t.Fatal(err)
	}
	if h2.Live() != 1 {
		t.Errorf("Live = %d after idempotent redo", h2.Live())
	}
	// InsertAt can also extend the file to a brand-new page (redo of an
	// insert whose page never got flushed).
	pid := mustAlloc(t, s)
	if err := h2.InsertAt(RID{Page: pid, Slot: 2}, bytes.Repeat([]byte{4}, 100)); err != nil {
		t.Fatal(err)
	}
	if h2.Live() != 2 {
		t.Errorf("Live = %d after extending redo", h2.Live())
	}
}

func TestHeapRejectsBadSizes(t *testing.T) {
	s := mustStore(t, 512)
	if _, err := NewHeapFile("t", newDirectPager(s), 512, 5000); err == nil {
		t.Error("oversized record should fail")
	}
	h, _ := NewHeapFile("t", newDirectPager(s), 512, 100)
	if _, err := h.Insert(make([]byte, 99)); err == nil {
		t.Error("short record should fail")
	}
	if err := h.Update(RID{}, make([]byte, 3)); err == nil {
		t.Error("short update should fail")
	}
}

func TestHeapRandomizedAgainstReference(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		s := mustStore(t, 256)
		h, _ := NewHeapFile("t", newDirectPager(s), 256, 40)
		ref := map[RID]byte{}
		var rids []RID
		for op := 0; op < 500; op++ {
			if len(rids) == 0 || r.Bernoulli(0.6) {
				b := byte(r.Int63n(255) + 1)
				rid, err := h.Insert(bytes.Repeat([]byte{b}, 40))
				if err != nil {
					return false
				}
				if _, dup := ref[rid]; dup {
					t.Logf("insert returned live RID %s", rid)
					return false
				}
				ref[rid] = b
				rids = append(rids, rid)
			} else {
				i := int(r.Int63n(int64(len(rids))))
				rid := rids[i]
				rids = append(rids[:i], rids[i+1:]...)
				if err := h.Delete(rid); err != nil {
					return false
				}
				delete(ref, rid)
			}
		}
		if h.Live() != int64(len(ref)) {
			return false
		}
		out := make([]byte, 40)
		for rid, b := range ref {
			if err := h.Read(rid, out); err != nil || out[0] != b {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestStoreMisuseReturnsTypedErrors(t *testing.T) {
	if _, err := NewStore(0); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("NewStore(0) = %v, want ErrInvalidArgument", err)
	}
	if _, err := NewStoreOn(nil, 4096); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("NewStoreOn(nil) = %v, want ErrInvalidArgument", err)
	}
	s := mustStore(t, 512)
	buf := make([]byte, 512)
	if err := s.Read(PageID(99), buf); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("read of unallocated page = %v, want ErrInvalidArgument", err)
	}
	if err := s.Flush(PageID(99), buf); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("flush of unallocated page = %v, want ErrInvalidArgument", err)
	}
	id := mustAlloc(t, s)
	if err := s.Read(id, make([]byte, 10)); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("short read buffer = %v, want ErrInvalidArgument", err)
	}
	h := &HeapFile{} // zero heap never used; just check sentinel plumbing below
	_ = h
	hf, err := NewHeapFile("t", newDirectPager(s), 512, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := hf.Insert(make([]byte, 99)); !errors.Is(err, ErrInvalidArgument) {
		t.Errorf("short insert = %v, want ErrInvalidArgument", err)
	}
	rid, err := hf.Insert(bytes.Repeat([]byte{1}, 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := hf.Delete(rid); err != nil {
		t.Fatal(err)
	}
	if err := hf.Read(rid, make([]byte, 100)); !errors.Is(err, ErrNoRecord) {
		t.Errorf("read of deleted record = %v, want ErrNoRecord", err)
	}
}

// corrupt flips one bit of the given area's stored image, bypassing the
// store (simulating media decay).
func corrupt(t *testing.T, disk *MemDisk, id PageID, area Area, physSize int, bit int) {
	t.Helper()
	img := make([]byte, physSize)
	if err := disk.Read(id, area, img); err != nil {
		t.Fatal(err)
	}
	img[bit/8] ^= 1 << uint(bit%8)
	if err := disk.Write(id, area, img); err != nil {
		t.Fatal(err)
	}
}

func TestStoreDetectsAndRepairsCorruption(t *testing.T) {
	disk := NewMemDisk()
	s, err := NewStoreOn(disk, 512)
	if err != nil {
		t.Fatal(err)
	}
	id := mustAlloc(t, s)
	img := bytes.Repeat([]byte{0x5A}, 512)
	if err := s.Flush(id, img); err != nil {
		t.Fatal(err)
	}
	// Flip a bit in the primary copy: the read must detect it, repair
	// from the journal mirror, and serve the correct image.
	corrupt(t, disk, id, AreaData, 512+4, 1000)
	got := make([]byte, 512)
	if err := s.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("repaired read returned wrong image")
	}
	st := s.Stats()
	if st.Detected != 1 || st.Repaired != 1 {
		t.Errorf("stats = %+v, want Detected=1 Repaired=1", st)
	}
	// A subsequent read sees the repaired primary copy: no new detection.
	if err := s.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Detected != 1 {
		t.Errorf("detected = %d after repair, want 1", st.Detected)
	}
}

func TestStoreReportsDoubleCorruption(t *testing.T) {
	disk := NewMemDisk()
	s, err := NewStoreOn(disk, 512)
	if err != nil {
		t.Fatal(err)
	}
	id := mustAlloc(t, s)
	if err := s.Flush(id, bytes.Repeat([]byte{3}, 512)); err != nil {
		t.Fatal(err)
	}
	corrupt(t, disk, id, AreaData, 512+4, 7)
	corrupt(t, disk, id, AreaJournal, 512+4, 7)
	err = s.Read(id, make([]byte, 512))
	if !errors.Is(err, ErrCorruptPage) {
		t.Fatalf("double corruption read = %v, want ErrCorruptPage", err)
	}
	var ce *CorruptPageError
	if !errors.As(err, &ce) || ce.ID != id {
		t.Errorf("corrupt page error = %v, want page %d", err, id)
	}
}

// flakyJournal fails the next journal-area read with a transient error.
type flakyJournal struct {
	*MemDisk
	fail bool
}

func (d *flakyJournal) Read(id PageID, area Area, buf []byte) error {
	if area == AreaJournal && d.fail {
		d.fail = false
		return fmt.Errorf("injected: %w", ErrTransientIO)
	}
	return d.MemDisk.Read(id, area, buf)
}

// TestJournalReadErrorIsNotCorruption: the primary copy fails its checksum
// and the read of the mirror hits a device error. That is a failed read the
// caller may retry — the mirror is intact — not a page corrupt on both
// copies, which nobody would retry.
func TestJournalReadErrorIsNotCorruption(t *testing.T) {
	disk := &flakyJournal{MemDisk: NewMemDisk()}
	s, err := NewStoreOn(disk, 512)
	if err != nil {
		t.Fatal(err)
	}
	id := mustAlloc(t, s)
	img := bytes.Repeat([]byte{0x5A}, 512)
	if err := s.Flush(id, img); err != nil {
		t.Fatal(err)
	}
	corrupt(t, disk.MemDisk, id, AreaData, 512+4, 1000)
	disk.fail = true
	got := make([]byte, 512)
	if err := s.Read(id, got); !errors.Is(err, ErrTransientIO) || errors.Is(err, ErrCorruptPage) {
		t.Fatalf("read with a failing mirror = %v, want the transient error", err)
	}
	if err := s.Read(id, got); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("retry = %v, want the repaired image", err)
	}
}

func TestStoreVerify(t *testing.T) {
	disk := NewMemDisk()
	s, err := NewStoreOn(disk, 256)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	for i := 0; i < 5; i++ {
		id := mustAlloc(t, s)
		if err := s.Flush(id, bytes.Repeat([]byte{byte(i + 1)}, 256)); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	corrupt(t, disk, ids[1], AreaData, 256+4, 33)    // repairable
	corrupt(t, disk, ids[3], AreaData, 256+4, 99)    // unrecoverable:
	corrupt(t, disk, ids[3], AreaJournal, 256+4, 99) // both copies hit
	res, err := s.Verify(ids)
	if err != nil {
		t.Fatal(err)
	}
	if res.Checked != 5 || res.Repaired != 1 {
		t.Errorf("verify = %+v, want Checked=5 Repaired=1", res)
	}
	if len(res.Corrupt) != 1 || res.Corrupt[0] != ids[3] {
		t.Errorf("corrupt list = %v, want [%d]", res.Corrupt, ids[3])
	}
}

func TestTornFlushLeavesOneIntactCopy(t *testing.T) {
	// Model a torn in-place write directly: the journal holds the new
	// image (it is written first), the data area holds a mix.
	disk := NewMemDisk()
	s, err := NewStoreOn(disk, 256)
	if err != nil {
		t.Fatal(err)
	}
	id := mustAlloc(t, s)
	oldImg := bytes.Repeat([]byte{0x11}, 256)
	if err := s.Flush(id, oldImg); err != nil {
		t.Fatal(err)
	}
	newImg := bytes.Repeat([]byte{0x22}, 256)
	if err := s.Flush(id, newImg); err != nil {
		t.Fatal(err)
	}
	// Tear: first 100 bytes of the data area revert to the old image
	// (as if only the second part of the sector landed).
	phys := make([]byte, 256+4)
	if err := disk.Read(id, AreaData, phys); err != nil {
		t.Fatal(err)
	}
	copy(phys[:100], oldImg[:100])
	phys[0] ^= 0xFF // make the mix detectable regardless of content
	if err := disk.Write(id, AreaData, phys); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := s.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newImg) {
		t.Error("torn write not repaired to the journaled image")
	}
}
