package fault

import (
	"bytes"
	"errors"
	"testing"

	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/storage"
)

func newFaultyStore(t *testing.T, seed uint64, pageSize int) (*Injector, *storage.Store) {
	t.Helper()
	inj := New(storage.NewMemDisk(), seed)
	s, err := storage.NewStoreOn(inj, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	return inj, s
}

func TestTransientErrorsAreTypedAndStopWhenDisabled(t *testing.T) {
	inj, s := newFaultyStore(t, 1, 256)
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	inj.SetConfig(Config{ReadErrProb: 1, WriteErrProb: 1})
	inj.SetEnabled(true)
	buf := make([]byte, 256)
	if err := s.Read(id, buf); !errors.Is(err, storage.ErrTransientIO) {
		t.Errorf("read = %v, want ErrTransientIO", err)
	}
	if err := s.Flush(id, buf); !errors.Is(err, storage.ErrTransientIO) {
		t.Errorf("flush = %v, want ErrTransientIO", err)
	}
	inj.SetEnabled(false)
	if err := s.Read(id, buf); err != nil {
		t.Errorf("read with faults disabled: %v", err)
	}
	st := inj.Stats()
	if st.ReadErrs != 1 || st.WriteErrs < 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestCrashFuseKillsDeviceUntilRevive(t *testing.T) {
	inj, s := newFaultyStore(t, 2, 256)
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 256)
	inj.ScheduleCrash(1)
	if err := s.Read(id, buf); !errors.Is(err, storage.ErrCrashed) {
		t.Fatalf("fuse op = %v, want ErrCrashed", err)
	}
	if err := s.Flush(id, buf); !errors.Is(err, storage.ErrCrashed) {
		t.Errorf("post-crash op = %v, want ErrCrashed", err)
	}
	if !inj.Dead() {
		t.Error("device should be dead")
	}
	inj.Revive()
	if err := s.Read(id, buf); err != nil {
		t.Errorf("read after revive: %v", err)
	}
	if inj.Stats().Crashes != 1 {
		t.Errorf("crashes = %d, want 1", inj.Stats().Crashes)
	}
}

// TestCrashMidFlushIsAtomic crashes the device on each of the flush's two
// device writes (journal, then data) and checks the page always reads
// back as a complete image — the old or the new one, never a mix and
// never an unrecoverable checksum failure.
func TestCrashMidFlushIsAtomic(t *testing.T) {
	oldImg := bytes.Repeat([]byte{0x11}, 256)
	newImg := bytes.Repeat([]byte{0x22}, 256)
	for fuse := int64(1); fuse <= 2; fuse++ {
		for seed := uint64(0); seed < 8; seed++ {
			inj, s := newFaultyStore(t, seed, 256)
			id, err := s.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(id, oldImg); err != nil {
				t.Fatal(err)
			}
			inj.ScheduleCrash(fuse)
			if err := s.Flush(id, newImg); !errors.Is(err, storage.ErrCrashed) {
				t.Fatalf("fuse=%d seed=%d: flush = %v, want ErrCrashed", fuse, seed, err)
			}
			inj.Revive()
			got := make([]byte, 256)
			if err := s.Read(id, got); err != nil {
				t.Fatalf("fuse=%d seed=%d: read after crash: %v", fuse, seed, err)
			}
			if !bytes.Equal(got, oldImg) && !bytes.Equal(got, newImg) {
				t.Errorf("fuse=%d seed=%d: read a mixed image", fuse, seed)
			}
		}
	}
}

func TestBitFlipsAreDetectedAndRepaired(t *testing.T) {
	inj, s := newFaultyStore(t, 3, 256)
	id, err := s.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	inj.SetConfig(Config{BitFlipProb: 1})
	inj.SetEnabled(true)
	img := bytes.Repeat([]byte{0x7E}, 256)
	if err := s.Flush(id, img); err != nil {
		t.Fatal(err)
	}
	inj.SetEnabled(false)
	got := make([]byte, 256)
	if err := s.Read(id, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("flipped page not repaired to the written image")
	}
	if inj.Stats().BitFlips < 1 {
		t.Error("no bit flip recorded")
	}
	st := s.Stats()
	if st.Detected < 1 || st.Repaired < 1 {
		t.Errorf("store stats = %+v, want detection and repair", st)
	}
}

func TestForceErrorsAreTransient(t *testing.T) {
	inj := New(storage.NewMemDisk(), 4)
	inj.SetConfig(Config{ForceErrProb: 1})
	inj.SetEnabled(true)
	if err := inj.BeforeForce(10); !errors.Is(err, storage.ErrTransientIO) {
		t.Errorf("force = %v, want ErrTransientIO", err)
	}
	inj.Kill()
	if err := inj.BeforeForce(10); !errors.Is(err, storage.ErrCrashed) {
		t.Errorf("dead force = %v, want ErrCrashed", err)
	}
}

// TestTortureShort runs a miniature campaign end to end under each
// concurrency-control mode: two crash schedules on one seed, with every
// fault class enabled, must recover with zero invariant violations.
func TestTortureShort(t *testing.T) {
	if testing.Short() {
		t.Skip("torture campaign in -short mode")
	}
	for _, cc := range []db.CCMode{db.CC2PL, db.CCMVCC, db.CCSSI} {
		t.Run(cc.String(), func(t *testing.T) {
			cfg := DefaultTortureConfig()
			cfg.CC = cc
			cfg.Seeds = 1
			cfg.Schedules = 2
			cfg.Txns = 80
			cfg.Workers = 2
			rep, err := Torture(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range rep.Violations {
				t.Error(v)
			}
			if len(rep.Schedules) != 2 {
				t.Fatalf("ran %d schedules, want 2", len(rep.Schedules))
			}
			if rep.Probes != 2 || rep.Detected < int64(rep.Probes) {
				t.Errorf("probes=%d detected=%d: directed corruption not detected",
					rep.Probes, rep.Detected)
			}
			if st := rep.Schedules[1].Recovery; st.Records == 0 || st.Bytes == 0 || st.Applied == 0 {
				t.Errorf("second recovery scanned %d records, %d bytes, applied %d rows", st.Records, st.Bytes, st.Applied)
			}
			t.Log(rep.Summary())
		})
	}
}
