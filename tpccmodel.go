// Package tpccmodel is a from-scratch Go reproduction of Leutenegger &
// Dias, "A Modeling Study of the TPC-C Benchmark" (SIGMOD '93): the NURand
// access-skew analysis, tuple-to-page packing strategies, LRU buffer
// simulation, and the throughput / price-performance / distributed
// scale-up models — plus an executable page-based storage engine running
// the five TPC-C transactions, which the paper models but never built.
//
// This package is the stable facade over the internal packages. Typical
// use:
//
//	// Quantify the stock relation's access skew (Figures 3-5).
//	pmf := tpccmodel.ExactPMF(tpccmodel.StockItemDistribution())
//	lz := tpccmodel.NewLorenz(pmf)
//	share := lz.AccessShareOfHottest(0.20) // ~0.84
//
//	// Regenerate the paper's evaluation at reduced scale.
//	study := tpccmodel.NewStudy(tpccmodel.ReducedOptions())
//	fig8, err := tpccmodel.Fig8(study)
//
//	// Run the real engine.
//	db, _ := tpccmodel.OpenEngine(tpccmodel.EngineConfig{
//		Warehouses: 1, PageSize: 4096, BufferPages: 8192,
//	})
//	_ = db.Load(1)
//
// The cmd/ tools print every figure and table; DESIGN.md maps each to its
// implementation and EXPERIMENTS.md records paper-vs-measured values.
package tpccmodel

import (
	"tpccmodel/internal/analytic"
	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/experiments"
	"tpccmodel/internal/model"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/queuesim"
	"tpccmodel/internal/sim"
	"tpccmodel/internal/stats"
	"tpccmodel/internal/tpcc"
	"tpccmodel/internal/workload"
)

// Relation identifies one of the nine TPC-C relations.
type Relation = core.Relation

// The nine TPC-C relations (paper Table 1).
const (
	Warehouse = core.Warehouse
	District  = core.District
	Customer  = core.Customer
	Stock     = core.Stock
	Item      = core.Item
	Order     = core.Order
	NewOrder  = core.NewOrder
	OrderLine = core.OrderLine
	History   = core.History
)

// TxnType identifies one of the five TPC-C transaction types.
type TxnType = core.TxnType

// The five transaction types (paper Table 2).
const (
	TxnNewOrder    = core.TxnNewOrder
	TxnPayment     = core.TxnPayment
	TxnOrderStatus = core.TxnOrderStatus
	TxnDelivery    = core.TxnDelivery
	TxnStockLevel  = core.TxnStockLevel
)

// NURandParams identifies one NU(A, x, y) distribution.
type NURandParams = nurand.Params

// StockItemDistribution returns NU(8191, 1, 100000), the item/stock-id
// distribution.
func StockItemDistribution() NURandParams { return nurand.ItemID }

// CustomerIDDistribution returns NU(1023, 1, 3000), the customer-id
// distribution.
func CustomerIDDistribution() NURandParams { return nurand.CustomerID }

// ExactPMF computes the exact probability mass function of an NU
// distribution (Section 3 / Appendix A.3).
func ExactPMF(p NURandParams) []float64 { return nurand.ExactPMF(p) }

// SamplePMF estimates the PMF by Monte Carlo, as the paper did.
func SamplePMF(p NURandParams, samples int64, seed uint64) []float64 {
	return nurand.SamplePMF(p, samples, seed)
}

// CustomerAccessPMF returns the customer relation's within-district access
// distribution: the paper's 41.86% by-id / 58.14% by-name mixture.
func CustomerAccessPMF() []float64 { return nurand.CustomerMixture().ExactPMF() }

// Lorenz quantifies access skew ("x% of accesses go to y% of the data").
type Lorenz = stats.Lorenz

// NewLorenz builds a skew curve from access weights (e.g. a PMF).
func NewLorenz(weights []float64) *Lorenz { return stats.NewLorenz(weights) }

// DBConfig fixes the database scale and page size.
type DBConfig = tpcc.Config

// Mix is the transaction mix.
type Mix = tpcc.Mix

// DefaultMix returns the paper's 43/44/4/5/4 mix.
func DefaultMix() Mix { return tpcc.DefaultMix() }

// WorkloadConfig parameterizes the TPC-C reference-stream generator.
type WorkloadConfig = workload.Config

// DefaultWorkload returns the paper's workload at the given scale.
func DefaultWorkload(warehouses int, seed uint64) WorkloadConfig {
	return workload.DefaultConfig(warehouses, seed)
}

// Packing selects the tuple-to-page strategy (Section 3).
type Packing = sim.Packing

// Packing strategies.
const (
	PackSequential = sim.PackSequential
	PackOptimized  = sim.PackOptimized
	PackShuffled   = sim.PackShuffled
)

// MissCurveConfig parameterizes the single-pass buffer simulation.
type MissCurveConfig = sim.CurveConfig

// MissCurveResult holds exact miss-rate-vs-buffer-size curves.
type MissCurveResult = sim.CurveResult

// RunMissCurve runs the LRU stack-distance simulation (Section 4): one
// pass yields the exact miss rate for every buffer size.
func RunMissCurve(cfg MissCurveConfig) (*MissCurveResult, error) { return sim.RunCurve(cfg) }

// DirectSimConfig parameterizes a fixed-size simulation with a concrete
// replacement policy ("lru", "fifo", "clock", "lfu", "2q", "slru").
type DirectSimConfig = sim.Config

// RunDirectSim runs a fixed-capacity buffer simulation.
func RunDirectSim(cfg DirectSimConfig) (*sim.Result, error) { return sim.Run(cfg) }

// SystemParams fix the modeled machine (Table 4 overheads, MIPS,
// utilization caps).
type SystemParams = model.SystemParams

// DefaultSystemParams returns the paper's 10 MIPS / 80% CPU / 50% disk
// operating point with the reconstructed Table 4 overheads.
func DefaultSystemParams() SystemParams { return model.DefaultSystemParams() }

// CostModel is the Figure 10 hardware cost model.
type CostModel = model.CostModel

// DefaultCostModel returns $5000 per 3GB disk, $10000 CPU, $100/MB memory.
func DefaultCostModel() CostModel { return model.DefaultCostModel() }

// Demands couple the buffer simulation to the throughput model.
type Demands = model.Demands

// DemandsAt extracts per-transaction demands from a miss-curve result at
// evaluation capacity index capIdx.
func DemandsAt(res *MissCurveResult, capIdx int) Demands {
	return model.DemandsFromCurve(res, capIdx)
}

// Throughput is a model operating point.
type Throughput = model.Throughput

// MaxThroughput solves for the throughput at the CPU utilization cap
// (Section 5.1).
func MaxThroughput(p SystemParams, d Demands) Throughput {
	return model.MaxThroughput(p, d, nil)
}

// DistConfig describes a distributed configuration (Section 5.3).
type DistConfig = model.DistConfig

// DefaultDistConfig returns the benchmark's remote probabilities.
func DefaultDistConfig(nodes int, itemReplicated bool) DistConfig {
	return model.DefaultDistConfig(nodes, itemReplicated)
}

// Scaleup evaluates total throughput across node counts (Figure 11).
func Scaleup(p SystemParams, d Demands, base DistConfig, nodes []int) []model.ScaleupPoint {
	return model.Scaleup(p, d, base, nodes)
}

// Study caches buffer-simulation runs shared by the figure generators.
type Study = experiments.Study

// StudyOptions scale the simulation-backed experiments.
type StudyOptions = experiments.Options

// FullScaleOptions returns the paper's scale (20 warehouses, 30x100K).
func FullScaleOptions() StudyOptions { return experiments.FullScale() }

// ReducedOptions returns a laptop-fast scale preserving curve shapes.
func ReducedOptions() StudyOptions { return experiments.Reduced() }

// NewStudy creates an experiment study.
func NewStudy(opts StudyOptions) *Study { return experiments.NewStudy(opts) }

// Series is a printable experiment result.
type Series = experiments.Series

// Experiment generators, one per paper table/figure. See DESIGN.md for the
// experiment index.
var (
	Table1         = experiments.Table1
	Fig3           = experiments.Fig3
	Fig4           = experiments.Fig4
	Fig5           = experiments.Fig5
	Fig6           = experiments.Fig6
	Fig7           = experiments.Fig7
	SkewHeadlines  = experiments.SkewHeadlines
	Fig8           = experiments.Fig8
	Table3         = experiments.Table3
	Fig9           = experiments.Fig9
	Fig10          = experiments.Fig10
	Fig10Minima    = experiments.Fig10Minima
	Fig11          = experiments.Fig11
	Fig12          = experiments.Fig12
	Table4         = experiments.Table4
	Tables6and7    = experiments.Tables6and7
	PolicyAblation = experiments.PolicyAblation
)

// QueueSimConfig parameterizes the discrete-event queueing simulation that
// cross-validates the analytic response-time model.
type QueueSimConfig = queuesim.Config

// QueueSimResult reports the measured throughput, utilizations, and
// response times.
type QueueSimResult = queuesim.Result

// RunQueueSim runs the discrete-event CPU+disk simulation.
func RunQueueSim(cfg QueueSimConfig) (QueueSimResult, error) { return queuesim.Run(cfg) }

// ResponseTime estimates per-transaction mean response times at a given
// arrival rate (processor-sharing CPU + M/M/1 disk arms).
func ResponseTime(p SystemParams, d Demands, lambda float64, diskArms int) (model.ResponseTimes, error) {
	return model.ResponseTime(p, d, lambda, diskArms)
}

// AnalyticClass and AnalyticModel expose the Che/IRM closed-form buffer
// model: miss-rate curves from exact access distributions, no simulation.
type AnalyticClass = analytic.Class

// AnalyticModel is a normalized independent-reference model over pages.
type AnalyticModel = analytic.Model

// NewAnalyticModel builds a Che/IRM model from page classes.
func NewAnalyticModel(classes []AnalyticClass) (*AnalyticModel, error) {
	return analytic.NewModel(classes)
}

// EngineConfig sizes an executable engine instance.
type EngineConfig = db.Config

// Engine is the running TPC-C database (strict 2PL, WAL, LRU buffer).
type Engine = db.DB

// OpenEngine creates an empty engine instance; call Load to populate it
// per the benchmark's initial-population rules.
func OpenEngine(cfg EngineConfig) (*Engine, error) { return db.Open(cfg) }

// EngineNewOrderInput parameterizes Engine.NewOrder.
type EngineNewOrderInput = db.NewOrderInput

// EngineOrderItem is one requested line of a New-Order transaction.
type EngineOrderItem = db.OrderItem

// EngineRunner drives the engine with benchmark-distributed inputs.
type EngineRunner = db.Runner

// NewEngineRunner creates a driver over the engine.
func NewEngineRunner(d *Engine, seed uint64, mix Mix) *EngineRunner {
	return db.NewRunner(d, seed, mix)
}

// RunEngineConcurrent executes a mixed workload across worker goroutines.
func RunEngineConcurrent(d *Engine, seed uint64, mix Mix, total, workers int) error {
	return db.RunConcurrent(d, seed, mix, total, workers)
}
