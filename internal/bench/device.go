package bench

import (
	"fmt"
	"sync/atomic"
	"time"

	"tpccmodel/internal/engine/storage"
)

// SleepFloor is the shortest service time the device accepts. time.Sleep on
// the benchmark's sandbox takes 1.09-1.15 ms whether it is asked for 50 µs,
// 200 µs or 1 ms, so a shorter nominal time would silently cost the floor.
const SleepFloor = time.Millisecond

// Device is the benchmark's storage hardware: a storage.DiskIO that charges
// a service time per page read and page write, and a wal.FaultHook that
// charges one per log force, by sleeping. Charging starts switched off, so
// loading and warming a database cost no device time; SetCharging(true)
// turns it on for the measured window. With all service times zero it is a
// pass-through that only counts, which is what the resident workloads use.
//
// A flush writes the journal mirror and then the page in place; only the
// in-place write is charged, matching the store's own accounting (one
// physical write per flush, the sequential mirror write not counted).
type Device struct {
	inner     storage.DiskIO
	pageCost  time.Duration
	forceCost time.Duration
	charging  atomic.Bool
	tr        *tracer // nil unless this run traces

	logBytes atomic.Int64 // the n of the latest BeforeForce(n)

	// The engine calls the device on whichever worker needs a page or leads
	// a commit batch. In a traced pass workers pin their OS thread and
	// register its id, so the device can tell which worker, hence which
	// transaction, it serves.
	tids [maxWorkers]atomic.Int32
	// sleepCPU[w] is the CPU time worker w's thread has spent inside charged
	// sleeps: entering and leaving a 1 ms sleep costs tens of microseconds
	// of kernel and hypervisor time, which is the simulation's, not the
	// engine's. Written only by worker w's thread.
	sleepCPU [maxWorkers]paddedMicros
}

// maxWorkers bounds the workers a device can tell apart; the benchmark never
// runs more than two.
const maxWorkers = 4

// paddedMicros keeps neighbouring workers' counters off one cache line.
type paddedMicros struct {
	us float64
	_  [56]byte
}

// NewDevice wraps inner. A service time must be zero or at least SleepFloor.
func NewDevice(inner storage.DiskIO, pageCost, forceCost time.Duration) (*Device, error) {
	for _, c := range []time.Duration{pageCost, forceCost} {
		if c != 0 && c < SleepFloor {
			return nil, fmt.Errorf("bench: device service time %v is below the %v sleep floor: time.Sleep cannot wait less, so the device would charge the floor instead", c, SleepFloor)
		}
	}
	return &Device{inner: inner, pageCost: pageCost, forceCost: forceCost}, nil
}

// SetCharging switches the service times on or off.
func (d *Device) SetCharging(on bool) { d.charging.Store(on) }

// LogBytes returns the log length the latest force made durable.
func (d *Device) LogBytes() int64 { return d.logBytes.Load() }

// bind registers the calling thread as worker w.
func (d *Device) bind(w int) { d.tids[w].Store(gettid()) }

// worker returns the worker pinned to the calling thread, or -1 (the thread
// that loads the database or writes the closing checkpoint).
func (d *Device) worker() int {
	tid := gettid()
	for i := range d.tids {
		if d.tids[i].Load() == tid {
			return i
		}
	}
	return -1
}

// serve charges cost (when charging) around op and, when tracing, records
// the whole as one span of the given kind.
func (d *Device) serve(kind spanKind, cost time.Duration, logBytes int, op func() error) error {
	tracing := d.tr != nil && d.tr.on.Load()
	charged := cost > 0 && d.charging.Load()
	if !tracing && !charged {
		return op()
	}
	w := -1
	if d.tr != nil { // only a traced pass pins and registers its workers
		w = d.worker()
	}
	var start time.Time
	if tracing {
		start = time.Now()
	}
	if charged {
		if w < 0 {
			time.Sleep(cost)
		} else {
			cpu0 := threadCPUMicros()
			time.Sleep(cost)
			d.sleepCPU[w].us += threadCPUMicros() - cpu0
		}
	}
	err := op()
	if tracing && w >= 0 {
		d.tr.child(w, kind, start, time.Now(), logBytes)
	}
	return err
}

// Allocate implements storage.DiskIO.
func (d *Device) Allocate(size int) storage.PageID { return d.inner.Allocate(size) }

// Pages implements storage.DiskIO.
func (d *Device) Pages() int64 { return d.inner.Pages() }

// Read implements storage.DiskIO.
func (d *Device) Read(id storage.PageID, area storage.Area, buf []byte) error {
	if area != storage.AreaData {
		return d.inner.Read(id, area, buf)
	}
	return d.serve(spanDeviceRead, d.pageCost, 0, func() error { return d.inner.Read(id, area, buf) })
}

// Write implements storage.DiskIO.
func (d *Device) Write(id storage.PageID, area storage.Area, buf []byte) error {
	if area != storage.AreaData {
		return d.inner.Write(id, area, buf)
	}
	return d.serve(spanDeviceWrite, d.pageCost, 0, func() error { return d.inner.Write(id, area, buf) })
}

// BeforeForce implements wal.FaultHook: n is the log length the force makes
// durable.
func (d *Device) BeforeForce(n int) error {
	grown := int64(n) - d.logBytes.Swap(int64(n))
	return d.serve(spanWALForce, d.forceCost, int(grown), func() error { return nil })
}
