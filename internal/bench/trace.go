package bench

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"tpccmodel/internal/core"
)

// spanKind names a span. Transaction spans use the five kinds that equal
// their core.TxnType; the device and log-force kinds follow.
type spanKind uint8

const (
	spanDeviceRead spanKind = spanKind(core.NumTxnTypes) + iota
	spanDeviceWrite
	spanWALForce
	numSpanKinds
)

func (k spanKind) String() string {
	switch k {
	case spanDeviceRead:
		return "device.read"
	case spanDeviceWrite:
		return "device.write"
	case spanWALForce:
		return "wal.force"
	}
	return "txn." + txnName(core.TxnType(k))
}

// span is one timed interval at a layer boundary. A transaction span's
// parent is 0; a device or force span's parent is the id of the transaction
// span its worker was inside, and the pair (worker, id) is unique.
type span struct {
	kind     spanKind
	worker   int8
	id       uint32
	parent   uint32
	startNS  int64 // since the tracer's epoch
	endNS    int64
	logBytes int32 // wal.force only: bytes the force made durable
}

// tracer keeps spans in memory, one slice per worker so recording takes no
// lock: a worker records its own transaction spans, and the device records
// its spans under the worker whose thread it was called on.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	w     [maxWorkers]workerTrace
}

// workerTrace is written only by the goroutine pinned as that worker.
type workerTrace struct {
	spans   []span
	cur     uint32 // id of the open transaction span, 0 outside one
	childNS int64  // time covered by the open transaction's child spans
	selfUS  [core.NumTxnTypes][]selfSample
	txnNS   int64 // sum of transaction span durations
	kindNS  [numSpanKinds]int64
	kindN   [numSpanKinds]int64
	seg     int32
	_       [64]byte // keep neighbouring workers off one cache line
}

// selfSample is a transaction's self time tagged with its segment, so it can
// be speed-normalised like every other timing.
type selfSample struct {
	seg int32
	us  float64
}

func newTracer(spansPerWorker int) *tracer {
	t := &tracer{epoch: time.Now()}
	for i := range t.w {
		t.w[i].spans = make([]span, 0, spansPerWorker)
	}
	return t
}

// open starts a transaction span on worker w, in segment seg.
func (t *tracer) open(w, seg int) {
	wt := &t.w[w]
	wt.cur++
	wt.childNS = 0
	wt.seg = int32(seg)
}

// close ends worker w's transaction span; its self time is its duration
// minus the part its device and force spans cover (they never overlap: the
// engine issues them synchronously on the worker's thread).
func (t *tracer) close(w int, typ core.TxnType, start, end time.Time) {
	wt := &t.w[w]
	s := span{kind: spanKind(typ), worker: int8(w), id: wt.cur,
		startNS: start.Sub(t.epoch).Nanoseconds(), endNS: end.Sub(t.epoch).Nanoseconds()}
	wt.spans = append(wt.spans, s)
	dur := s.endNS - s.startNS
	wt.txnNS += dur
	wt.selfUS[typ] = append(wt.selfUS[typ], selfSample{seg: wt.seg, us: float64(dur-wt.childNS) / 1e3})
}

// child records a device or force span issued from worker w's thread.
func (t *tracer) child(w int, kind spanKind, start, end time.Time, logBytes int) {
	wt := &t.w[w]
	s := span{kind: kind, worker: int8(w), id: uint32(len(wt.spans)) + 1<<31, parent: wt.cur,
		startNS: start.Sub(t.epoch).Nanoseconds(), endNS: end.Sub(t.epoch).Nanoseconds(),
		logBytes: int32(logBytes)}
	wt.spans = append(wt.spans, s)
	dur := s.endNS - s.startNS
	wt.childNS += dur
	wt.kindNS[kind] += dur
	wt.kindN[kind]++
}

// total sums one kind's span time (ns) and count over all workers.
func (t *tracer) total(kind spanKind) (ns, n int64) {
	for i := range t.w {
		ns += t.w[i].kindNS[kind]
		n += t.w[i].kindN[kind]
	}
	return ns, n
}

// write emits every span as one JSON object per line.
func (t *tracer) write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	type line struct {
		Name     string `json:"name"`
		Worker   int8   `json:"worker"`
		ID       uint32 `json:"id"`
		Parent   uint32 `json:"parent,omitempty"`
		StartNS  int64  `json:"start_ns"`
		EndNS    int64  `json:"end_ns"`
		LogBytes int32  `json:"log_bytes,omitempty"`
	}
	for i := range t.w {
		for _, s := range t.w[i].spans {
			if err := enc.Encode(line{s.kind.String(), s.worker, s.id, s.parent, s.startNS, s.endNS, s.logBytes}); err != nil {
				return fmt.Errorf("bench: write span: %w", err)
			}
		}
	}
	return bw.Flush()
}

// txnName is the transaction type as metric and span names spell it. The
// benchmark keeps its own spelling rather than deriving it from
// core.TxnType.String: the names are frozen in BENCHMARK.json.
func txnName(t core.TxnType) string {
	switch t {
	case core.TxnNewOrder:
		return "neworder"
	case core.TxnPayment:
		return "payment"
	case core.TxnOrderStatus:
		return "orderstatus"
	case core.TxnDelivery:
		return "delivery"
	default:
		return "stocklevel"
	}
}
