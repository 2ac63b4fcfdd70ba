package shard

import (
	"sync/atomic"

	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/tpcc"
)

// XvalCounters accumulates the measured Appendix A quantities over the
// cluster's lifetime. The router adds to them in ExecNewOrder and
// ExecPayment, and only for acknowledged (globally committed)
// transactions. All fields are atomics.
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

// Xval returns the Appendix A rates measured since the cluster was opened.
func (c *Cluster) Xval() Measured { return c.xval.Measured() }

// RemoteWarehouse draws a warehouse by first drawing a NODE uniformly over
// all N shards (the home node included), then a warehouse within it — the
// sampling scheme behind Appendix A's (N-1)/N factors: the per-item
// remote-node probability is exactly RemoteStockProb·(N-1)/N, the
// appendix's P_s. It is the one thing Appendix A changes about the
// benchmark's input distributions.
func (c *Cluster) RemoteWarehouse(r *rng.RNG, home int64) int64 {
	node := r.Int63n(int64(c.cfg.Shards))
	return c.GlobalW(int(node), r.Int63n(int64(c.cfg.WarehousesPerShard)))
}

// terminal presents the router to db.Runner as a db.System: Warehouses
// and RemoteWarehouse are the cluster's own, the five procedures its Exec
// methods.
type terminal struct{ *Cluster }

func (t terminal) NewOrder(in db.NewOrderInput) (db.NewOrderResult, error) {
	return t.ExecNewOrder(in)
}
func (t terminal) Payment(in db.PaymentInput) error { return t.ExecPayment(in) }
func (t terminal) OrderStatus(in db.OrderStatusInput) (db.OrderStatusResult, error) {
	return t.ExecOrderStatus(in)
}
func (t terminal) Delivery(in db.DeliveryInput) (db.DeliveryResult, error) {
	return t.ExecDelivery(in)
}
func (t terminal) StockLevel(in db.StockLevelInput) (int, error) { return t.ExecStockLevel(in) }

// Run executes up to total transactions across workers goroutines, each a
// db.Runner driving the cluster's router on an independent rng.Substream
// of seed; stockProb and payProb override the benchmark's 1% and 15%
// remote probabilities when >= 0 (raise them for statistical power in
// validation runs). Shard deaths shed traffic rather than failing the run;
// any other failure cancels the siblings and is returned.
func Run(c *Cluster, seed uint64, mix tpcc.Mix, total, workers int,
	policy db.RetryPolicy, stockProb, payProb float64) (db.RunStats, error) {
	return run(terminal{c}, seed, mix, total, workers, policy, stockProb, payProb)
}

func run(sys db.System, seed uint64, mix tpcc.Mix, total, workers int,
	policy db.RetryPolicy, stockProb, payProb float64) (db.RunStats, error) {
	runners := make([]*db.Runner, max(workers, 1))
	for w := range runners {
		rn := db.NewRunnerOn(sys, rng.Substream(seed, uint64(w)), mix)
		rn.Policy = policy
		if stockProb >= 0 {
			rn.RemoteStockProb = stockProb
		}
		if payProb >= 0 {
			rn.RemotePaymentProb = payProb
		}
		runners[w] = rn
	}
	return db.RunWorkers(runners, total)
}
