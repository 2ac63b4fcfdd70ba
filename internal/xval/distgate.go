package xval

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/shard"
	"tpccmodel/internal/model"
	"tpccmodel/internal/tpcc"
)

// DistGateConfig sizes the Appendix A cross-shard validation gate: a
// real sharded cluster is driven with the benchmark's remote-access
// distributions and the measured remote-call rates are compared against
// model.DistConfig.Expect() (Tables 6/7, Figures 11/12) within a
// statistical tolerance.
type DistGateConfig struct {
	// Shards is the node count N; WarehousesPerShard the group size.
	Shards             int
	WarehousesPerShard int
	// Txns and Workers size the measurement run.
	Txns    int
	Workers int
	Seed    uint64
	// RemoteStockProb / RemotePaymentProb override the benchmark's
	// 1%/15% (negative = benchmark values). CI elevates them for
	// statistical power at small Txns.
	RemoteStockProb   float64
	RemotePaymentProb float64
	// Z is the sigma multiplier on the per-metric standard error
	// (tolerance = Z*SE + AbsFloor).
	Z float64
	// AbsFloor is an absolute tolerance floor.
	AbsFloor float64
}

// DefaultDistGateConfig returns the CI gate configuration: elevated
// remote probabilities so a few thousand transactions measure every
// quantity with useful precision.
func DefaultDistGateConfig() DistGateConfig {
	return DistGateConfig{
		Shards:             3,
		WarehousesPerShard: 1,
		Txns:               4000,
		Workers:            4,
		Seed:               1,
		RemoteStockProb:    0.10,
		RemotePaymentProb:  0.30,
		Z:                  5,
		AbsFloor:           0.02,
	}
}

// Validate checks the configuration.
func (c DistGateConfig) Validate() error {
	if c.Shards < 1 || c.WarehousesPerShard < 1 {
		return fmt.Errorf("xval: shards and warehouses per shard must be >= 1")
	}
	if c.Txns < 1 || c.Workers < 1 {
		return fmt.Errorf("xval: txns and workers must be >= 1")
	}
	if c.Z <= 0 {
		return fmt.Errorf("xval: z must be > 0")
	}
	for _, p := range []float64{c.RemoteStockProb, c.RemotePaymentProb} {
		if p > 1 {
			return fmt.Errorf("xval: remote probability %v out of [0,1]", p)
		}
	}
	return nil
}

// DistRow compares one Appendix A quantity.
type DistRow struct {
	// Name is the Table 5 symbol.
	Name string
	// Measured is the run's per-transaction rate; Expected the model's.
	Measured, Expected float64
	// Tol is the tolerance (Z standard errors plus the floor) and
	// Samples the denominator behind the standard error.
	Tol     float64
	Samples int64
	OK      bool
}

// DistResult is the gate's outcome.
type DistResult struct {
	Config   DistGateConfig
	Model    model.DistConfig
	Expect   model.Expectations
	Measured shard.Measured
	Stats    db.RunStats
	Rows     []DistRow
	Elapsed  time.Duration
}

// OK reports whether every quantity agreed.
func (r *DistResult) OK() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return true
}

// Err returns a gate error naming the first disagreeing quantity.
func (r *DistResult) Err() error {
	for _, row := range r.Rows {
		if !row.OK {
			return fmt.Errorf("xval: %s measured %.4f vs Appendix A %.4f (tolerance %.4f over %d samples)",
				row.Name, row.Measured, row.Expected, row.Tol, row.Samples)
		}
	}
	return nil
}

// WriteTSV prints the comparison, one row per Appendix A quantity.
func (r *DistResult) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w,
		"# Appendix A cross-shard gate: N=%d, p_stock=%.3g, p_pay=%.3g, %d txns (%d new-orders, %d payments): %s\n",
		r.Model.Nodes, r.Model.RemoteStockProb, r.Model.RemotePaymentProb,
		r.Stats.Acknowledged(), r.Measured.NewOrders, r.Measured.Payments,
		verdict(r.OK())); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, "quantity\tmeasured\texpected\ttolerance\tsamples\tok"); err != nil {
		return err
	}
	for _, row := range r.Rows {
		if _, err := fmt.Fprintf(w, "%s\t%.6g\t%.6g\t%.6g\t%d\t%v\n",
			row.Name, row.Measured, row.Expected, row.Tol, row.Samples, row.OK); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON emits the full result as indented JSON.
func (r *DistResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// distTol converts a per-sample variance bound into the gate tolerance:
// Z standard errors of the mean over n samples, plus the floor.
func (c DistGateConfig) distTol(variance float64, n int64) float64 {
	if n < 1 {
		n = 1
	}
	return c.Z*math.Sqrt(variance/float64(n)) + c.AbsFloor
}

// RunDistGate opens a shard.Cluster, drives the measurement run, and
// compares every measured Appendix A quantity against the analytic
// expectations. The returned error is a setup failure only — gate
// disagreement lands in the result (check OK / Err).
func RunDistGate(cfg DistGateConfig) (*DistResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ccfg := shard.DefaultConfig(cfg.Shards)
	ccfg.WarehousesPerShard = cfg.WarehousesPerShard
	ccfg.Seed = cfg.Seed
	c, err := shard.Open(ccfg)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	st, err := shard.Run(c, cfg.Seed, tpcc.DefaultMix(), cfg.Txns, cfg.Workers,
		cfg.RemoteStockProb, cfg.RemotePaymentProb)
	if err != nil {
		return nil, fmt.Errorf("xval: measurement run: %w", err)
	}
	if n := c.Quiesce(time.Second); n > 0 {
		return nil, fmt.Errorf("xval: %d participant commits pending after run", n)
	}
	if err := c.CheckAll(); err != nil {
		return nil, fmt.Errorf("xval: post-run consistency: %w", err)
	}

	mc := model.DistConfig{
		Nodes:             cfg.Shards,
		RemoteStockProb:   cfg.RemoteStockProb,
		RemotePaymentProb: cfg.RemotePaymentProb,
		ItemReplicated:    true, // every shard loads the full Item relation
		// The engine draws last names from NU(255) at both load and
		// select time, so the by-name group size is the
		// selection-weighted NURand expectation, not the paper's
		// uniform-names 3.
		ByNameSelected: model.NUByNameGroupSize(),
	}
	if cfg.RemoteStockProb < 0 {
		mc.RemoteStockProb = tpcc.RemoteStockProb
	}
	if cfg.RemotePaymentProb < 0 {
		mc.RemotePaymentProb = tpcc.RemotePaymentProb
	}
	e := mc.Expect()
	m := c.Xval()

	res := &DistResult{
		Config: cfg, Model: mc, Expect: e, Measured: m, Stats: st,
		Elapsed: time.Since(start),
	}
	nNO, nPay := m.NewOrders, m.Payments
	// Per-sample variance bounds: the remote-line count per New-Order is
	// Binomial(10, PS); all-local is Bernoulli(L); unique remote sites
	// are bounded by the remote-line count (same variance bound); the
	// remote-customer indicator is Bernoulli(U_cust). Remote customer
	// calls per Payment are 0 or selected+1, selected averaging
	// ByNameSelected on the by-name path, so bound E[V^2] by
	// 2·U_cust·E[(selected+1)^2] with a factor-2 slack for the NURand
	// group-size dispersion.
	vLine := float64(tpcc.ItemsPerOrder) * e.PS * (1 - e.PS)
	sel := mc.ByNameSelected
	vCust := 2 * e.UCust * (0.4*4 + 0.6*(sel+1)*(sel+1))
	row := func(name string, meas, exp, variance float64, n int64) {
		tol := cfg.distTol(variance, n)
		res.Rows = append(res.Rows, DistRow{
			Name: name, Measured: meas, Expected: exp, Tol: tol, Samples: n,
			OK: math.Abs(meas-exp) <= tol,
		})
	}
	row("E[R_s]", m.ERs, e.ERs, vLine, nNO)
	row("RC_stock", m.RCStock, e.RCStock, 4*vLine, nNO)
	row("L_stock", m.LStock, e.LStock, e.LStock*(1-e.LStock), nNO)
	row("U_stock", m.UStock, e.UStock, vLine, nNO)
	row("RC_cust", m.RCCust, e.RCCust, vCust, nPay)
	row("U_cust", m.UCust, e.UCust, e.UCust*(1-e.UCust), nPay)
	return res, nil
}
