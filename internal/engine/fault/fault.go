// Package fault injects storage and log-device failures into the engine
// for robustness testing. An Injector wraps a storage.DiskIO and doubles
// as a wal.FaultHook, so one seeded object controls every failure mode
// the engine must survive:
//
//   - transient I/O errors (storage.ErrTransientIO) on reads, writes, and
//     log forces — retried by the Runner's backoff policy;
//   - silent corruption: a written page image lands with one bit flipped
//     (data copy only, so the journal mirror stays intact and the store's
//     checksum read detects and repairs it);
//   - crashes: after a scheduled number of device operations the device
//     "dies" — the in-flight write is torn (a prefix of the new image over
//     the old) or dropped entirely, and every later operation returns
//     storage.ErrCrashed until Revive.
//
// All randomness comes from the injector's own seeded generator, so a
// failure schedule is reproducible from its seed.
package fault

import (
	"fmt"
	"sync"

	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/rng"
)

// Config sets steady-state fault probabilities (all per device operation;
// zero disables the corresponding fault).
type Config struct {
	// ReadErrProb / WriteErrProb fail page reads/writes with a transient
	// error before any bytes move.
	ReadErrProb  float64
	WriteErrProb float64
	// ForceErrProb fails a log force (the commit is not acknowledged and
	// does not become durable).
	ForceErrProb float64
	// BitFlipProb corrupts a written page image by one bit (data area
	// only; the journal copy stays intact).
	BitFlipProb float64
}

// Stats counts what the injector did.
type Stats struct {
	Reads, Writes, Forces          int64
	ReadErrs, WriteErrs, ForceErrs int64
	BitFlips                       int64
	TornWrites, DroppedWrites      int64
	Crashes                        int64
}

// Ops returns the total device operations observed.
func (s Stats) Ops() int64 { return s.Reads + s.Writes + s.Forces }

// Add adds o's counters to s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.Forces += o.Forces
	s.ReadErrs += o.ReadErrs
	s.WriteErrs += o.WriteErrs
	s.ForceErrs += o.ForceErrs
	s.BitFlips += o.BitFlips
	s.TornWrites += o.TornWrites
	s.DroppedWrites += o.DroppedWrites
	s.Crashes += o.Crashes
}

// Injector is a fault-injecting storage.DiskIO and wal.FaultHook. It is
// safe for concurrent use.
type Injector struct {
	mu      sync.Mutex
	disk    storage.DiskIO
	r       *rng.RNG
	cfg     Config
	enabled bool
	dead    bool
	armed   bool
	fuse    int64
	stats   Stats
}

var (
	_ storage.DiskIO = (*Injector)(nil)
	_ wal.FaultHook  = (*Injector)(nil)
)

// New wraps disk with a seeded injector. Faults start disabled; call
// SetConfig and SetEnabled to arm them.
func New(disk storage.DiskIO, seed uint64) *Injector {
	return &Injector{disk: disk, r: rng.New(seed)}
}

// SetConfig replaces the steady-state fault probabilities.
func (in *Injector) SetConfig(cfg Config) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.cfg = cfg
}

// SetEnabled turns steady-state faults (errors, bit flips) on or off.
// The crash fuse is independent: it burns whenever armed.
func (in *Injector) SetEnabled(on bool) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.enabled = on
}

// ScheduleCrash arms the device to die after the next n operations
// (reads, writes, and forces all count). n < 1 behaves as 1.
func (in *Injector) ScheduleCrash(n int64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if n < 1 {
		n = 1
	}
	in.armed = true
	in.fuse = n
}

// DisarmCrash cancels a scheduled crash that has not fired and reports
// whether one was still pending (false: the fuse burned down, or none
// was armed).
func (in *Injector) DisarmCrash() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	pending := in.armed
	in.armed = false
	return pending
}

// Kill makes the device dead immediately (a crash with no in-flight
// write to tear).
func (in *Injector) Kill() {
	in.mu.Lock()
	defer in.mu.Unlock()
	if !in.dead {
		in.dead = true
		in.stats.Crashes++
	}
}

// Revive brings a dead device back (the simulated machine reboots).
func (in *Injector) Revive() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.dead = false
	in.armed = false
}

// Dead reports whether the device is currently dead.
func (in *Injector) Dead() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.dead
}

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// errCrashed wraps the crash sentinel with the operation context.
func errCrashed(op string) error {
	return fmt.Errorf("fault: device dead (%s): %w", op, storage.ErrCrashed)
}

// burn consumes one fuse tick; it reports whether this operation is the
// one the crash lands on. Callers hold in.mu.
func (in *Injector) burn() bool {
	if !in.armed {
		return false
	}
	in.fuse--
	if in.fuse > 0 {
		return false
	}
	in.armed = false
	in.dead = true
	in.stats.Crashes++
	return true
}

// Allocate delegates to the wrapped device: allocation is catalog
// metadata, durable as in a real system's file-system layer.
func (in *Injector) Allocate(size int) storage.PageID {
	return in.disk.Allocate(size)
}

// Pages delegates to the wrapped device.
func (in *Injector) Pages() int64 { return in.disk.Pages() }

// Read implements storage.DiskIO.
func (in *Injector) Read(id storage.PageID, area storage.Area, buf []byte) error {
	in.mu.Lock()
	in.stats.Reads++
	if in.dead {
		in.mu.Unlock()
		return errCrashed("read")
	}
	if in.burn() {
		in.mu.Unlock()
		return errCrashed("read")
	}
	if in.enabled && in.cfg.ReadErrProb > 0 && in.r.Bernoulli(in.cfg.ReadErrProb) {
		in.stats.ReadErrs++
		in.mu.Unlock()
		return fmt.Errorf("fault: injected read error on page %d: %w", id, storage.ErrTransientIO)
	}
	in.mu.Unlock()
	return in.disk.Read(id, area, buf)
}

// Write implements storage.DiskIO. A crash landing on a write tears it
// (a prefix of the new image lands over the old) or drops it entirely —
// both model power loss mid-sector-train.
func (in *Injector) Write(id storage.PageID, area storage.Area, buf []byte) error {
	in.mu.Lock()
	in.stats.Writes++
	if in.dead {
		in.mu.Unlock()
		return errCrashed("write")
	}
	if in.burn() {
		tear := len(buf) > 1 && in.r.Bernoulli(0.5)
		var cut int
		if tear {
			cut = 1 + int(in.r.Int63n(int64(len(buf)-1)))
		}
		in.mu.Unlock()
		if tear && in.tear(id, area, buf, cut) {
			in.addTorn()
		} else {
			in.addDropped()
		}
		return errCrashed("write")
	}
	if in.enabled && in.cfg.WriteErrProb > 0 && in.r.Bernoulli(in.cfg.WriteErrProb) {
		in.stats.WriteErrs++
		in.mu.Unlock()
		return fmt.Errorf("fault: injected write error on page %d: %w", id, storage.ErrTransientIO)
	}
	flip := in.enabled && area == storage.AreaData &&
		in.cfg.BitFlipProb > 0 && in.r.Bernoulli(in.cfg.BitFlipProb)
	var bit int64
	if flip {
		in.stats.BitFlips++
		bit = in.r.Int63n(int64(len(buf)) * 8)
	}
	in.mu.Unlock()
	if flip {
		dirty := append([]byte(nil), buf...)
		dirty[bit/8] ^= 1 << uint(bit%8)
		return in.disk.Write(id, area, dirty)
	}
	return in.disk.Write(id, area, buf)
}

// tear lands the first cut bytes of the new image over the old one. It
// reports whether a torn image was actually written (false when the page
// had no prior image to mix with: the write is dropped instead).
func (in *Injector) tear(id storage.PageID, area storage.Area, buf []byte, cut int) bool {
	old := make([]byte, len(buf))
	if err := in.disk.Read(id, area, old); err != nil {
		return false
	}
	copy(old[:cut], buf[:cut])
	return in.disk.Write(id, area, old) == nil
}

func (in *Injector) addTorn() {
	in.mu.Lock()
	in.stats.TornWrites++
	in.mu.Unlock()
}

func (in *Injector) addDropped() {
	in.mu.Lock()
	in.stats.DroppedWrites++
	in.mu.Unlock()
}

// BeforeForce implements wal.FaultHook: a dead or crashing log device
// fails the force with storage.ErrCrashed (the commit is never
// acknowledged); a transient device error fails it retriably.
func (in *Injector) BeforeForce(n int) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.stats.Forces++
	if in.dead {
		return errCrashed("force")
	}
	if in.burn() {
		return errCrashed("force")
	}
	if in.enabled && in.cfg.ForceErrProb > 0 && in.r.Bernoulli(in.cfg.ForceErrProb) {
		in.stats.ForceErrs++
		return fmt.Errorf("fault: injected log force error: %w", storage.ErrTransientIO)
	}
	return nil
}
