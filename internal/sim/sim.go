// Package sim drives the paper's Section 4 buffer simulation: the TPC-C
// reference stream from package workload is mapped to pages by a packing
// strategy and fed to a buffer model, producing per-relation miss rates
// with batch-means confidence intervals (the paper uses 30 batches and
// requires relative half-widths of at most 5% at the 90% level).
//
// Two drivers are provided:
//
//   - RunCurve: a single-pass LRU stack-distance simulation that yields the
//     exact miss-rate-vs-buffer-size curve for every relation at once —
//     this regenerates the paper's Figure 8 sweep in one run, and the
//     per-transaction-type miss rates the throughput model needs.
//   - Run: a direct fixed-capacity simulation with a pluggable replacement
//     policy, used to validate the stack simulation and for the paper's
//     "more sophisticated replacement policies" hypothesis.
package sim

import (
	"fmt"
	"sort"

	"tpccmodel/internal/buffer"
	"tpccmodel/internal/core"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/packing"
	"tpccmodel/internal/rng"
	"tpccmodel/internal/stats"
	"tpccmodel/internal/tpcc"
	"tpccmodel/internal/workload"
)

// Packing selects the tuple-to-page strategy of Section 3.
type Packing int

// Packing strategies.
const (
	// PackSequential loads tuples in key order (the paper's baseline).
	PackSequential Packing = iota
	// PackOptimized sorts tuples hottest-first before packing (the
	// paper's optimization; possible because TPC-C access probabilities
	// are static and known a priori).
	PackOptimized
	// PackShuffled packs tuples in random order (a control; the paper
	// notes sequential-or-random spreads hot tuples alike).
	PackShuffled
)

// String names the strategy.
func (p Packing) String() string {
	switch p {
	case PackSequential:
		return "sequential"
	case PackOptimized:
		return "optimized"
	case PackShuffled:
		return "shuffled"
	default:
		return fmt.Sprintf("packing(%d)", int(p))
	}
}

// ParsePacking parses "sequential", "optimized", or "shuffled".
func ParsePacking(s string) (Packing, error) {
	switch s {
	case "sequential":
		return PackSequential, nil
	case "optimized":
		return PackOptimized, nil
	case "shuffled":
		return PackShuffled, nil
	default:
		return 0, fmt.Errorf("sim: unknown packing %q", s)
	}
}

// Mappers holds one tuple-to-page mapper per relation.
type Mappers [core.NumRelations]packing.Mapper

// BuildMappers constructs the per-relation mappers for a database scale and
// packing strategy. Only the three NURand-skewed relations (customer,
// stock, item) differ between strategies; the warehouse/district relations
// are tiny and uniform, and the growing relations are append-ordered by
// construction, so all of those pack sequentially. Stock and item share
// the NU(8191,1,100000) hotness ranking; customer uses the paper's id/name
// access mixture.
func BuildMappers(db tpcc.Config, strategy Packing, seed uint64) Mappers {
	var m Mappers
	for _, r := range core.Relations() {
		perPage := db.TuplesPerPage(r)
		var group int64
		switch r {
		case core.Stock:
			group = tpcc.StockPerWarehouse
		case core.Item:
			group = tpcc.ItemCount
		case core.Customer:
			group = tpcc.CustomersPerDistrict
		default:
			m[r] = packing.NewSequential(perPage)
			continue
		}
		switch strategy {
		case PackOptimized:
			var pmf []float64
			if r == core.Customer {
				pmf = nurand.CustomerMixture().ExactPMF()
			} else {
				pmf = nurand.ExactPMF(nurand.ItemID)
			}
			m[r] = packing.NewOptimized(pmf, perPage)
		case PackShuffled:
			// Derive one shuffle substream per relation: arithmetic like
			// seed+r hands adjacent, correlated seeds to sibling mappers.
			m[r] = packing.NewShuffled(group, perPage, rng.Substream(seed, uint64(r)))
		default:
			m[r] = packing.NewGroupedSequential(group, perPage)
		}
	}
	return m
}

// PagesForBytes converts a buffer size in bytes to pages.
func PagesForBytes(bytes int64, pageSize int) int64 {
	if pageSize <= 0 {
		panic("sim: page size must be positive")
	}
	return bytes / int64(pageSize)
}

// CurveConfig parameterizes a stack-distance simulation.
type CurveConfig struct {
	// Workload is the reference-stream configuration.
	Workload workload.Config
	// Packing is the tuple-to-page strategy.
	Packing Packing
	// CapacitiesPages are the buffer sizes (in pages, ascending or not)
	// at which confidence intervals and per-transaction miss rates are
	// evaluated. Full-resolution curves are available regardless.
	CapacitiesPages []int64
	// WarmupTxns are run before measurement starts.
	WarmupTxns int64
	// Batches and BatchTxns configure batch means (paper: 30 batches).
	Batches   int
	BatchTxns int64
	// Level is the confidence level (paper: 0.90).
	Level float64
}

// txns returns how many transactions a run consumes: warmup plus
// measurement.
func (c CurveConfig) txns() int64 { return c.WarmupTxns + int64(c.Batches)*c.BatchTxns }

// Validate checks the configuration.
func (c CurveConfig) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if len(c.CapacitiesPages) == 0 {
		return fmt.Errorf("sim: need at least one evaluation capacity")
	}
	for _, cap := range c.CapacitiesPages {
		if cap <= 0 {
			return fmt.Errorf("sim: capacities must be positive, got %d", cap)
		}
	}
	if c.WarmupTxns < 0 {
		return fmt.Errorf("sim: warmup must be non-negative, got %d", c.WarmupTxns)
	}
	if c.Batches < 2 || c.BatchTxns <= 0 {
		return fmt.Errorf("sim: need >= 2 batches of positive size")
	}
	if c.Level <= 0 || c.Level >= 1 {
		return fmt.Errorf("sim: confidence level %v out of (0,1)", c.Level)
	}
	return nil
}

// CurveResult holds the outputs of RunCurve.
type CurveResult struct {
	// Caps are the evaluation capacities, sorted ascending.
	Caps []int64
	// Curves are the full-resolution per-relation miss curves.
	Curves [core.NumRelations]*buffer.MissCurve
	// Overall is the full-resolution miss curve over all relations.
	Overall *buffer.MissCurve

	// batch-means accumulators per relation per capacity index.
	bm [core.NumRelations][]*stats.BatchMeans
	// global per-(txn,relation) access counts and hit counts by capacity.
	txnRelAcc  [core.NumTxnTypes][core.NumRelations]int64
	txnRelHits [core.NumTxnTypes][core.NumRelations][]int64
	// txnCounts are measured (post-warmup) transaction counts per type.
	txnCounts [core.NumTxnTypes]int64
	level     float64
}

// TxnIOs returns the measured mean number of physical page reads per
// transaction of type t at evaluation capacity index capIdx: the misses its
// accesses incur, over all relations. This is the model's per-transaction
// data-disk I/O count (the paper's "mc + 10(mi + ms)" terms, but measured
// per transaction type rather than approximated).
func (r *CurveResult) TxnIOs(t core.TxnType, capIdx int) float64 {
	n := r.txnCounts[t]
	if n == 0 {
		return 0
	}
	var misses int64
	for rel := range r.txnRelAcc[t] {
		misses += r.txnRelAcc[t][rel] - r.txnRelHits[t][rel][capIdx]
	}
	return float64(misses) / float64(n)
}

// MissRateCI returns the batch-means confidence interval of relation rel's
// miss rate at evaluation capacity index capIdx.
func (r *CurveResult) MissRateCI(rel core.Relation, capIdx int) (stats.Interval, error) {
	return r.bm[rel][capIdx].Interval(r.level)
}

// BatchDiagnostics returns the lag-1 autocorrelation of relation rel's
// per-batch miss rates at evaluation capacity index capIdx, and whether
// it sits within the white-noise band (batch-means CIs are only valid
// when batches are approximately independent; a failing diagnostic calls
// for a larger BatchTxns).
func (r *CurveResult) BatchDiagnostics(rel core.Relation, capIdx int) (lag1 float64, independent bool) {
	bm := r.bm[rel][capIdx]
	return bm.Lag1Autocorrelation(), bm.BatchesIndependent()
}

// MissRate returns relation rel's overall miss rate at an arbitrary
// capacity in pages (full resolution, no CI).
func (r *CurveResult) MissRate(rel core.Relation, capacityPages int64) float64 {
	return r.Curves[rel].MissRate(capacityPages)
}

// TxnRelMissRate returns the miss rate of transaction type t's accesses to
// relation rel at evaluation capacity index capIdx — the paper's
// "miss rates for the accesses by the Order-Status, Delivery, and
// Stock-Level transactions in isolation", used by the throughput model.
// Returns 0 when the transaction never touches the relation.
func (r *CurveResult) TxnRelMissRate(t core.TxnType, rel core.Relation, capIdx int) float64 {
	acc := r.txnRelAcc[t][rel]
	if acc == 0 {
		return 0
	}
	return 1 - float64(r.txnRelHits[t][rel][capIdx])/float64(acc)
}

// TxnRelAccesses returns how many accesses transaction type t made to
// relation rel during measurement.
func (r *CurveResult) TxnRelAccesses(t core.TxnType, rel core.Relation) int64 {
	return r.txnRelAcc[t][rel]
}

// RelAccesses returns the total measured accesses to relation rel across
// all transaction types.
func (r *CurveResult) RelAccesses(rel core.Relation) int64 {
	var n int64
	for t := range r.txnRelAcc {
		n += r.txnRelAcc[t][rel]
	}
	return n
}

// RunCurve runs the single-pass stack-distance simulation. The reference
// stream is recorded once per (workload, length) and translated to flat
// page ordinals once per (packing, page size) in SharedTraces, which keeps
// both for the life of the process so every later run over the same stream
// replays them; the kernel then feeds the ordinals to DenseStackSim.
//
// All returned curves are finalized: MissRate reads are O(1) and safe for
// concurrent use by the sweep drivers.
func RunCurve(cfg CurveConfig) (*CurveResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mt, err := SharedTraces.GetMapped(cfg.Workload, cfg.txns(), cfg.Packing)
	if err != nil {
		return nil, err
	}
	caps := append([]int64(nil), cfg.CapacitiesPages...)
	sort.Slice(caps, func(i, j int) bool { return caps[i] < caps[j] })
	ncap := len(caps)

	res := &CurveResult{Caps: caps, Overall: &buffer.MissCurve{}, level: cfg.Level}
	for rel := range res.Curves {
		res.Curves[rel] = &buffer.MissCurve{}
		res.bm[rel] = make([]*stats.BatchMeans, ncap)
		for i := range res.bm[rel] {
			// Each batch contributes one sample (its miss rate).
			res.bm[rel][i] = stats.NewBatchMeans(1)
		}
	}
	for t := range res.txnRelHits {
		for rel := range res.txnRelHits[t] {
			res.txnRelHits[t][rel] = make([]int64, ncap)
		}
	}

	runDense(cfg, mt, res, caps)

	for rel := range res.Curves {
		res.Curves[rel].Finalize()
	}
	res.Overall.Finalize()
	return res, nil
}

// addBatchMeans folds one batch's hitFrom counters into the per-capacity
// batch-means accumulators: hits at caps[i] = sum of hitFrom[0..i]
// (distance <= caps[i]).
func (r *CurveResult) addBatchMeans(batchAcc *[core.NumRelations]int64, batchHitFrom [][core.NumRelations]int64) {
	var cum [core.NumRelations]int64
	for i := 0; i < len(r.Caps); i++ {
		for rel := range cum {
			cum[rel] += batchHitFrom[i][rel]
			if batchAcc[rel] > 0 {
				r.bm[rel][i].Add(1 - float64(cum[rel])/float64(batchAcc[rel]))
			}
		}
	}
}

// foldTxnRelHits converts the global per-(txn,rel) hitFrom counters into
// cumulative hits per capacity.
func (r *CurveResult) foldTxnRelHits(txnRelHitFrom [][core.NumTxnTypes][core.NumRelations]int64) {
	for t := range r.txnRelHits {
		for rel := range r.txnRelHits[t] {
			var cum int64
			for i := 0; i < len(r.Caps); i++ {
				cum += txnRelHitFrom[i][core.TxnType(t)][rel]
				r.txnRelHits[t][rel][i] = cum
			}
		}
	}
}

// runDense replays pre-translated flat page ordinals (Trace.MapPages)
// through DenseStackSim. Per access it performs one slice load for the
// ordinal, the two Fenwick walks, one table lookup for the capacity bucket,
// and one per-relation MissCurve.Add — no map probe, no PageID
// construction, no binary search, no transaction-struct rebuild, no second
// Add for the overall curve (Overall is merged from the per-relation curves
// afterwards, which yields identical counts). The per-access path allocates
// nothing.
func runDense(cfg CurveConfig, mt *MappedTrace, res *CurveResult, caps []int64) {
	tr := mt.trace
	ncap := len(caps)

	// O(1) distance-to-capacity-index lookup: lut[d] is the index of the
	// smallest capacity >= d for d in [1, maxCap]; larger distances miss
	// everywhere.
	maxCap := caps[ncap-1]
	lut := make([]int32, maxCap+1)
	idx := int32(0)
	for d := int64(1); d <= maxCap; d++ {
		for caps[idx] < d {
			idx++
		}
		lut[d] = idx
	}

	dense := buffer.NewDenseStackSim(mt.universe)
	pages := mt.pages
	rels := tr.rels

	var k int64 // global access cursor
	if cfg.WarmupTxns > 0 {
		// Warmup touches the stack simulator only; no per-transaction
		// structure is needed.
		for end := tr.ends[cfg.WarmupTxns-1]; k < end; k++ {
			dense.Access(int64(pages[k]))
		}
	}

	// hitFrom[idx] counts accesses whose smallest sufficient capacity is
	// caps[idx]; prefix sums convert to hits at each capacity.
	var batchAcc [core.NumRelations]int64
	batchHitFrom := make([][core.NumRelations]int64, ncap)
	txnRelHitFrom := make([][core.NumTxnTypes][core.NumRelations]int64, ncap)

	txnIdx := cfg.WarmupTxns
	for b := 0; b < cfg.Batches; b++ {
		for rel := range batchAcc {
			batchAcc[rel] = 0
		}
		for i := range batchHitFrom {
			batchHitFrom[i] = [core.NumRelations]int64{}
		}
		for i := int64(0); i < cfg.BatchTxns; i++ {
			typ := tr.types[txnIdx]
			res.txnCounts[typ]++
			for end := tr.ends[txnIdx]; k < end; k++ {
				rel := rels[k]
				d := dense.Access(int64(pages[k]))
				res.Curves[rel].Add(d)
				batchAcc[rel]++
				res.txnRelAcc[typ][rel]++
				if d != buffer.ColdDistance && d <= maxCap {
					idx := lut[d]
					batchHitFrom[idx][rel]++
					txnRelHitFrom[idx][typ][rel]++
				}
			}
			txnIdx++
		}
		res.addBatchMeans(&batchAcc, batchHitFrom)
	}
	res.foldTxnRelHits(txnRelHitFrom)

	for rel := range res.Curves {
		res.Overall.Merge(res.Curves[rel])
	}
}
