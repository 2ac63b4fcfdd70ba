package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// XvalCounters accumulates the measured Appendix A quantities across all
// workers of a run. Only acknowledged (globally committed) transactions
// count. All fields are atomics.
type XvalCounters struct {
	// NewOrders acked; RemoteLines sums remote-NODE supplied lines
	// (E[R_s] numerator); AllLocal counts New-Orders whose ten lines
	// were all node-local (L numerator); RemoteSites sums distinct
	// remote shards per New-Order (U_stock numerator).
	NewOrders   atomic.Int64
	RemoteLines atomic.Int64
	AllLocal    atomic.Int64
	RemoteSites atomic.Int64
	// Payments acked; RemotePayments counts those whose customer lived
	// on another shard (U_cust numerator); RemoteCustCalls sums remote
	// customer tuples touched — selects plus write-back (RC_cust
	// numerator).
	Payments        atomic.Int64
	RemotePayments  atomic.Int64
	RemoteCustCalls atomic.Int64
}

// Measured are the per-transaction rates derived from XvalCounters, in
// the Appendix A notation (Table 5): compare against
// model.DistConfig.Expect().
type Measured struct {
	NewOrders, Payments int64
	// ERs is remote stock tuples per New-Order; RCStock its remote
	// calls (2 per tuple: read + write-back).
	ERs, RCStock float64
	// LStock is the fraction of all-local New-Orders.
	LStock float64
	// UStock is distinct remote nodes per New-Order.
	UStock float64
	// RCCust is remote customer calls per Payment; UCust the fraction
	// of Payments with a remote-node customer.
	RCCust, UCust float64
}

// Measured derives the rates (zero value when nothing acked).
func (x *XvalCounters) Measured() Measured {
	m := Measured{NewOrders: x.NewOrders.Load(), Payments: x.Payments.Load()}
	if m.NewOrders > 0 {
		n := float64(m.NewOrders)
		m.ERs = float64(x.RemoteLines.Load()) / n
		m.RCStock = 2 * m.ERs
		m.LStock = float64(x.AllLocal.Load()) / n
		m.UStock = float64(x.RemoteSites.Load()) / n
	}
	if m.Payments > 0 {
		p := float64(m.Payments)
		m.RCCust = float64(x.RemoteCustCalls.Load()) / p
		m.UCust = float64(x.RemotePayments.Load()) / p
	}
	return m
}

// Runner drives one worker's benchmark stream against a cluster: it
// generates globally-addressed inputs with the paper's distributions —
// remote suppliers and remote customers drawn NODE-uniform, so the
// per-item remote-node probability is exactly RemoteStockProb·(N-1)/N,
// the Appendix A P_s — routes them through the coordinator, retries
// retriable aborts, and sheds transactions for dead shards.
type Runner struct {
	c       *Cluster
	r       *rng.RNG
	custGen *nurand.Gen
	itemGen *nurand.Gen
	nameGen *nurand.Gen
	mix     tpcc.Mix

	// RemoteStockProb and RemotePaymentProb default to the benchmark's
	// 1% and 15%; raise them for statistical power in validation runs.
	RemoteStockProb   float64
	RemotePaymentProb float64

	// Policy is the retry/shed policy (db.DefaultRetryPolicy by default).
	Policy db.RetryPolicy

	// Xval, when non-nil, accumulates Appendix A measurements.
	Xval *XvalCounters

	counts           [core.NumTxnTypes]atomic.Int64
	retries          atomic.Int64
	sheds            atomic.Int64
	consecutiveSheds int
}

// NewRunner creates a worker. Derive per-worker seeds with
// rng.Substream so concurrent workers draw independent streams.
func NewRunner(c *Cluster, seed uint64, mix tpcc.Mix) *Runner {
	r := rng.New(seed)
	return &Runner{
		c:                 c,
		r:                 r,
		custGen:           nurand.NewGen(nurand.CustomerID, r),
		itemGen:           nurand.NewGen(nurand.ItemID, r),
		nameGen:           nurand.NewGen(nurand.Params{A: 255, X: 0, Y: tpcc.NamesPerDistrict - 1}, r),
		mix:               mix,
		RemoteStockProb:   tpcc.RemoteStockProb,
		RemotePaymentProb: tpcc.RemotePaymentProb,
		Policy:            db.DefaultRetryPolicy(),
	}
}

// Counts returns acknowledged executions per type.
func (rn *Runner) Counts() [core.NumTxnTypes]int64 {
	var out [core.NumTxnTypes]int64
	for i := range out {
		out[i] = rn.counts[i].Load()
	}
	return out
}

// Retries and Sheds expose the retry-policy counters.
func (rn *Runner) Retries() int64 { return rn.retries.Load() }

// Sheds returns the number of transactions dropped (retry exhaustion or
// a dead shard).
func (rn *Runner) Sheds() int64 { return rn.sheds.Load() }

func (rn *Runner) pickType() core.TxnType {
	u := rn.r.Float64()
	var cum float64
	for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
		cum += rn.mix.Fraction(t)
		if u < cum {
			return t
		}
	}
	return core.TxnStockLevel
}

// globalWarehouse draws a home warehouse uniformly over the cluster.
func (rn *Runner) globalWarehouse() int64 {
	return rn.r.Int63n(int64(rn.c.Warehouses()))
}

// nodeUniformWarehouse draws a warehouse by first drawing a NODE
// uniformly over all N shards (own node included), then a warehouse
// within it — the sampling scheme behind Appendix A's (N-1)/N factors.
func (rn *Runner) nodeUniformWarehouse() int64 {
	node := rn.r.Int63n(int64(rn.c.cfg.Shards))
	return rn.c.GlobalW(int(node), rn.r.Int63n(int64(rn.c.cfg.WarehousesPerShard)))
}

func (rn *Runner) backoff(attempt int) {
	p := rn.Policy
	if p.BaseDelay <= 0 {
		return
	}
	d := p.BaseDelay << uint(attempt-1)
	if p.MaxDelay > 0 && d > p.MaxDelay {
		d = p.MaxDelay
	}
	half := int64(d / 2)
	time.Sleep(d/2 + time.Duration(rn.r.Int63n(half+1)))
}

func retriable(err error) bool {
	return !errors.Is(err, db.ErrCommitUnknown) &&
		(errors.Is(err, db.ErrAborted) || errors.Is(err, storage.ErrTransientIO))
}

// runOne generates and executes one transaction. Dead-shard refusals
// (ErrShardDown) shed immediately; retriable failures retry per policy
// then shed; anything else is fatal.
func (rn *Runner) runOne(ctx context.Context) error {
	typ := rn.pickType()
	var exec func() error
	homeW := rn.globalWarehouse()
	home := rn.c.ShardOf(homeW)

	// Pre-computed per-transaction xval facts, recorded only on ack.
	var remoteLines, remoteSites int64
	remotePayment := false
	remoteCalls := 0

	switch typ {
	case core.TxnNewOrder:
		in := db.NewOrderInput{
			W: homeW,
			D: rn.r.Int63n(tpcc.DistrictsPerWarehouse),
			C: rn.custGen.Next() - 1,
		}
		sites := make(map[int]struct{})
		for i := 0; i < tpcc.ItemsPerOrder; i++ {
			it := db.OrderItem{IID: rn.itemGen.Next() - 1, SupplyW: homeW, Qty: 1 + rn.r.Int63n(10)}
			if rn.r.Bernoulli(rn.RemoteStockProb) {
				it.SupplyW = rn.nodeUniformWarehouse()
				if s := rn.c.ShardOf(it.SupplyW); s != home {
					remoteLines++
					sites[s] = struct{}{}
				}
			}
			in.Items = append(in.Items, it)
		}
		remoteSites = int64(len(sites))
		exec = func() error { _, err := rn.c.ExecNewOrder(in); return err }
	case core.TxnPayment:
		in := db.PaymentInput{
			W:           homeW,
			D:           rn.r.Int63n(tpcc.DistrictsPerWarehouse),
			AmountCents: uint32(rn.r.IntRange(tpcc.PaymentMinCents, tpcc.PaymentMaxCents)),
		}
		in.CW, in.CD = homeW, rn.r.Int63n(tpcc.DistrictsPerWarehouse)
		if rn.r.Bernoulli(rn.RemotePaymentProb) {
			in.CW = rn.nodeUniformWarehouse()
		}
		remotePayment = rn.c.ShardOf(in.CW) != home
		if rn.r.Bernoulli(tpcc.PayByNameProb) {
			in.ByName = true
			in.NameOrd = rn.nameGen.Next()
		} else {
			in.C = rn.custGen.Next() - 1
		}
		exec = func() error {
			calls, err := rn.c.ExecPayment(in)
			remoteCalls = calls
			return err
		}
	case core.TxnOrderStatus:
		in := db.OrderStatusInput{W: rn.c.LocalW(homeW), D: rn.r.Int63n(tpcc.DistrictsPerWarehouse)}
		if rn.r.Bernoulli(tpcc.PayByNameProb) {
			in.ByName = true
			in.NameOrd = rn.nameGen.Next()
		} else {
			in.C = rn.custGen.Next() - 1
		}
		exec = rn.localExec(home, func(d *db.DB) error { _, err := d.OrderStatus(in); return err })
	case core.TxnDelivery:
		in := db.DeliveryInput{W: rn.c.LocalW(homeW), Carrier: uint8(1 + rn.r.Int63n(10))}
		exec = rn.localExec(home, func(d *db.DB) error { _, err := d.Delivery(in); return err })
	case core.TxnStockLevel:
		in := db.StockLevelInput{
			W: rn.c.LocalW(homeW), D: rn.r.Int63n(tpcc.DistrictsPerWarehouse),
			Threshold: int32(10 + rn.r.Int63n(11)),
		}
		exec = rn.localExec(home, func(d *db.DB) error { _, err := d.StockLevel(in); return err })
	}

	maxAttempts := rn.Policy.MaxAttempts
	if maxAttempts < 1 {
		maxAttempts = 1
	}
	for attempt := 1; ; attempt++ {
		err := exec()
		if err == nil {
			rn.counts[typ].Add(1)
			rn.consecutiveSheds = 0
			if rn.Xval != nil {
				switch typ {
				case core.TxnNewOrder:
					rn.Xval.NewOrders.Add(1)
					rn.Xval.RemoteLines.Add(remoteLines)
					rn.Xval.RemoteSites.Add(remoteSites)
					if remoteLines == 0 {
						rn.Xval.AllLocal.Add(1)
					}
				case core.TxnPayment:
					rn.Xval.Payments.Add(1)
					if remotePayment {
						rn.Xval.RemotePayments.Add(1)
						rn.Xval.RemoteCustCalls.Add(int64(remoteCalls))
					}
				}
			}
			return nil
		}
		shed := false
		switch {
		case errors.Is(err, ErrShardDown):
			// Dead shard: typed refusal, already counted per shard.
			shed = true
		case !retriable(err):
			return fmt.Errorf("shard: %s failed: %w", typ, err)
		case attempt >= maxAttempts:
			shed = true
		}
		if shed {
			rn.sheds.Add(1)
			rn.consecutiveSheds++
			if b := rn.Policy.ShedBudget; b > 0 && rn.consecutiveSheds > b {
				return fmt.Errorf("shard: shed %d transactions in a row (last: %w)",
					rn.consecutiveSheds, err)
			}
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		rn.retries.Add(1)
		rn.backoff(attempt)
	}
}

// localExec wraps a purely local procedure on shard home with the
// dead-shard contract: refuse immediately when the shard is down, and
// translate a mid-operation crash into the same typed shed.
func (rn *Runner) localExec(home int, fn func(d *db.DB) error) func() error {
	return func() error {
		s := rn.c.shards[home]
		if s.Down() {
			s.downSheds.Add(1)
			return fmt.Errorf("home shard %d: %w", home, ErrShardDown)
		}
		if err := fn(s.DB); err != nil {
			if errors.Is(err, storage.ErrCrashed) {
				s.down.Store(true)
				s.downSheds.Add(1)
				return fmt.Errorf("home shard %d died: %w", home, ErrShardDown)
			}
			return err
		}
		s.localCommits.Add(1)
		return nil
	}
}

// RunStats aggregates a concurrent cluster run.
type RunStats struct {
	Counts         [core.NumTxnTypes]int64
	Retries, Sheds int64
	Elapsed        time.Duration
	// Xval carries the Appendix A measurements of the run.
	Xval Measured
}

// Acknowledged sums acked transactions.
func (s RunStats) Acknowledged() int64 {
	var n int64
	for _, c := range s.Counts {
		n += c
	}
	return n
}

// Run executes up to total transactions across workers goroutines, each
// a Runner on an independent rng.Substream of seed. Shard deaths shed
// traffic rather than failing the run; any other failure cancels the
// siblings and is returned.
func Run(c *Cluster, seed uint64, mix tpcc.Mix, total, workers int,
	policy db.RetryPolicy, stockProb, payProb float64) (RunStats, error) {
	if workers < 1 {
		workers = 1
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var xc XvalCounters
	runners := make([]*Runner, workers)
	per := total / workers
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	start := time.Now()
	for w := 0; w < workers; w++ {
		rn := NewRunner(c, rng.Substream(seed, uint64(w)), mix)
		rn.Policy = policy
		rn.Xval = &xc
		if stockProb >= 0 {
			rn.RemoteStockProb = stockProb
		}
		if payProb >= 0 {
			rn.RemotePaymentProb = payProb
		}
		runners[w] = rn
		n := per
		if w == workers-1 {
			n = total - per*(workers-1)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if ctx.Err() != nil {
					return
				}
				if err := rn.runOne(ctx); err != nil {
					if !errors.Is(err, context.Canceled) {
						errCh <- err
					}
					cancel()
					return
				}
			}
		}()
	}
	wg.Wait()
	st := RunStats{Elapsed: time.Since(start), Xval: xc.Measured()}
	for _, rn := range runners {
		cs := rn.Counts()
		for i := range st.Counts {
			st.Counts[i] += cs[i]
		}
		st.Retries += rn.Retries()
		st.Sheds += rn.Sheds()
	}
	select {
	case err := <-errCh:
		return st, err
	default:
	}
	return st, nil
}
