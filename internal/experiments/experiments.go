// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment returns a Series — named columns plus rows —
// that the cmd tools print and EXPERIMENTS.md records; bench_test.go runs
// the same code at reduced scale.
//
// The per-experiment index lives in DESIGN.md; the functions here are
// named after the paper's figures and tables.
package experiments

import (
	"fmt"
	"io"
	"sync"

	"tpccmodel/internal/core"
	"tpccmodel/internal/model"
	"tpccmodel/internal/nurand"
	"tpccmodel/internal/packing"
	"tpccmodel/internal/parallel"
	"tpccmodel/internal/sim"
	"tpccmodel/internal/stats"
	"tpccmodel/internal/tpcc"
	"tpccmodel/internal/workload"
)

// Series is one experiment's output: a table of float rows with named
// columns, printable as TSV.
type Series struct {
	Name    string
	Comment string
	Cols    []string
	Rows    [][]float64
}

// Add appends one row.
func (s *Series) Add(vals ...float64) { s.Rows = append(s.Rows, vals) }

// WriteTSV prints the series with a header.
func (s Series) WriteTSV(w io.Writer) error {
	if s.Comment != "" {
		if _, err := fmt.Fprintf(w, "# %s\n", s.Comment); err != nil {
			return err
		}
	}
	for i, c := range s.Cols {
		sep := "\t"
		if i == len(s.Cols)-1 {
			sep = "\n"
		}
		if _, err := fmt.Fprintf(w, "%s%s", c, sep); err != nil {
			return err
		}
	}
	for _, row := range s.Rows {
		for i, v := range row {
			sep := "\t"
			if i == len(row)-1 {
				sep = "\n"
			}
			if _, err := fmt.Fprintf(w, "%.6g%s", v, sep); err != nil {
				return err
			}
		}
	}
	return nil
}

// Options scale the simulation-backed experiments.
type Options struct {
	// Warehouses is the per-node scale (paper: 20).
	Warehouses int
	// Seed drives all randomness.
	Seed uint64
	// WarmupTxns, Batches, BatchTxns configure the buffer simulation
	// (paper: 30 batches of 100,000).
	WarmupTxns int64
	Batches    int
	BatchTxns  int64
	// Level is the confidence level (paper: 0.90).
	Level float64
	// BufferMB are the buffer sizes evaluated (Figures 8-10 sweep).
	BufferMB []float64
	// PageSize in bytes (paper: 4096).
	PageSize int
	// Workers bounds the goroutines used by the sweep experiments;
	// 0 or negative means one per CPU. The worker count never affects
	// emitted results — every task derives its randomness from the root
	// seed and results are collected by task index.
	Workers int
}

// FullScale returns the paper's configuration: 20 warehouses, 30 batches
// of 100K transactions, 64 buffer sizes from 4MB to 256MB. A full run
// takes tens of seconds per packing strategy on a laptop.
func FullScale() Options {
	return Options{
		Warehouses: 20,
		Seed:       1993,
		WarmupTxns: 200_000,
		Batches:    30,
		BatchTxns:  100_000,
		Level:      0.90,
		BufferMB:   bufferGrid(64, 4, 256),
		PageSize:   4096,
	}
}

// Reduced returns a laptop-fast configuration preserving the paper's
// qualitative shapes: 4 warehouses, 6 batches of 10K transactions,
// 24 buffer sizes scaled to the smaller database.
func Reduced() Options {
	return Options{
		Warehouses: 4,
		Seed:       1993,
		WarmupTxns: 10_000,
		Batches:    6,
		BatchTxns:  10_000,
		Level:      0.90,
		BufferMB:   bufferGrid(24, 1, 52),
		PageSize:   4096,
	}
}

func bufferGrid(n int, loMB, hiMB float64) []float64 {
	out := make([]float64, n)
	step := (hiMB - loMB) / float64(n-1)
	for i := range out {
		out[i] = loMB + float64(i)*step
	}
	return out
}

func (o Options) workload() workload.Config {
	cfg := workload.DefaultConfig(o.Warehouses, o.Seed)
	cfg.DB.PageSize = o.PageSize
	return cfg
}

func (o Options) capacities() []int64 {
	caps := make([]int64, len(o.BufferMB))
	for i, mb := range o.BufferMB {
		caps[i] = sim.PagesForBytes(int64(mb*(1<<20)), o.PageSize)
	}
	return caps
}

func (o Options) workers() int { return parallel.Workers(o.Workers) }

// trace returns the memoized reference trace covering this configuration's
// warmup plus measurement window; every sweep cell replays it instead of
// regenerating the stream.
func (o Options) trace() (*sim.Trace, error) {
	return sim.SharedTraces.Get(o.workload(), o.WarmupTxns+int64(o.Batches)*o.BatchTxns)
}

// curve runs one stack-distance simulation cell over the shared trace.
func (o Options) curve(p sim.Packing) (*sim.CurveResult, error) {
	return sim.RunCurve(sim.CurveConfig{
		Workload:        o.workload(),
		Packing:         p,
		CapacitiesPages: o.capacities(),
		WarmupTxns:      o.WarmupTxns,
		Batches:         o.Batches,
		BatchTxns:       o.BatchTxns,
		Level:           o.Level,
	})
}

// Study caches the expensive buffer-simulation results per packing
// strategy so that Figures 8, 9, and 10 share one pass each. It is safe for
// concurrent use: parallel experiment tasks asking for the same packing
// compute it exactly once, and all packings replay one shared reference
// trace.
type Study struct {
	Opts   Options
	mu     sync.Mutex
	curves map[sim.Packing]*curveEntry
}

type curveEntry struct {
	once sync.Once
	res  *sim.CurveResult
	err  error
}

// NewStudy creates a study at the given scale.
func NewStudy(opts Options) *Study {
	return &Study{Opts: opts, curves: make(map[sim.Packing]*curveEntry)}
}

// Curve runs (or returns the cached) stack-distance simulation for one
// packing strategy.
func (s *Study) Curve(p sim.Packing) (*sim.CurveResult, error) {
	s.mu.Lock()
	e, ok := s.curves[p]
	if !ok {
		e = &curveEntry{}
		s.curves[p] = e
	}
	s.mu.Unlock()
	e.once.Do(func() {
		e.res, e.err = s.Opts.curve(p)
	})
	return e.res, e.err
}

// Prefetch computes the curves for the given packings as parallel tasks
// (each curve is itself a sequential single-pass simulation; the fan-out is
// across packings). The error of the lowest-indexed failing packing is
// returned.
func (s *Study) Prefetch(ps ...sim.Packing) error {
	return parallel.ForEach(s.Opts.workers(), len(ps), func(i int) error {
		_, err := s.Curve(ps[i])
		return err
	})
}

// Table1 reproduces the paper's Table 1 (logical database summary).
func Table1(warehouses int, pageSize int) Series {
	cfg := tpcc.Config{Warehouses: warehouses, PageSize: pageSize}
	s := Series{
		Name:    "table1",
		Comment: fmt.Sprintf("Table 1: logical database, W=%d, %dB pages (cardinality 0 = grows without bound)", warehouses, pageSize),
		Cols:    []string{"relation", "cardinality", "tuple_bytes", "tuples_per_page", "static_pages"},
	}
	for _, rel := range core.Relations() {
		s.Add(float64(rel), float64(cfg.Cardinality(rel)),
			float64(tpcc.TupleLen[rel]), float64(cfg.TuplesPerPage(rel)),
			float64(cfg.StaticPages(rel)))
	}
	return s
}

// Fig3 reproduces the stock/item PMF of NU(8191,1,100000). Exact
// computation replaces the paper's 10^9-sample Monte Carlo; stride
// downsamples the 100K points for printing (stride 1 = all).
func Fig3(stride int) Series {
	return pmfSeries("fig3", "Stock relation PMF, NU(8191,1,100000), exact",
		nurand.ExactPMF(nurand.ItemID), 1, stride)
}

// Fig4 is the Figure 3 PMF restricted to tuples 1..10000 (one-cycle zoom).
func Fig4(stride int) Series {
	pmf := nurand.ExactPMF(nurand.ItemID)[:10000]
	return pmfSeries("fig4", "Stock relation PMF, tuples 1..10000", pmf, 1, stride)
}

// Fig6 reproduces the customer-relation PMF (the id/name access mixture).
func Fig6(stride int) Series {
	return pmfSeries("fig6", "Customer relation PMF (41.86% by-id + 58.14% by-name thirds)",
		nurand.CustomerMixture().ExactPMF(), 1, stride)
}

func pmfSeries(name, comment string, pmf []float64, base int64, stride int) Series {
	if stride < 1 {
		stride = 1
	}
	s := Series{Name: name, Comment: comment, Cols: []string{"tuple_id", "probability"}}
	for i := 0; i < len(pmf); i += stride {
		s.Add(float64(base+int64(i)), pmf[i])
	}
	return s
}

// Fig5 reproduces the stock CDF curves: cumulative access probability vs
// cumulative data fraction at the tuple level, 4K-page sequential,
// 8K-page sequential, and optimized packing.
func Fig5(points int) Series {
	pmf := nurand.ExactPMF(nurand.ItemID)
	return skewCDF("fig5", "Stock relation CDF (coldest-first)", pmf, 13, 26, points)
}

// Fig7 reproduces the customer CDF curves (6 tuples per 4K page, 12 per 8K).
func Fig7(points int) Series {
	pmf := nurand.CustomerMixture().ExactPMF()
	return skewCDF("fig7", "Customer relation CDF (coldest-first)", pmf, 6, 12, points)
}

func skewCDF(name, comment string, pmf []float64, perPage4K, perPage8K int64, points int) Series {
	n := int64(len(pmf))
	tuple := stats.NewLorenz(pmf)
	seq4 := stats.NewLorenz(packing.PagePMF(pmf, packing.NewGroupedSequential(n, perPage4K)))
	seq8 := stats.NewLorenz(packing.PagePMF(pmf, packing.NewGroupedSequential(n, perPage8K)))
	opt4 := stats.NewLorenz(packing.PagePMF(pmf, packing.NewOptimized(pmf, perPage4K)))
	s := Series{
		Name:    name,
		Comment: comment + "; columns are cumulative access fractions",
		Cols:    []string{"data_fraction", "tuple_level", "seq_4K_pages", "seq_8K_pages", "optimized_4K"},
	}
	for i := 0; i <= points; i++ {
		f := float64(i) / float64(points)
		s.Add(f, tuple.CumulativeAt(f), seq4.CumulativeAt(f), seq8.CumulativeAt(f), opt4.CumulativeAt(f))
	}
	return s
}

// SkewHeadlines reports the Section 3 headline numbers: the access share
// of the hottest 20%, 10%, and 2% of stock tuples and 4K pages.
func SkewHeadlines() Series {
	pmf := nurand.ExactPMF(nurand.ItemID)
	tuple := stats.NewLorenz(pmf)
	page4 := stats.NewLorenz(packing.PagePMF(pmf, packing.NewGroupedSequential(int64(len(pmf)), 13)))
	opt4 := stats.NewLorenz(packing.PagePMF(pmf, packing.NewOptimized(pmf, 13)))
	s := Series{
		Name:    "skew-headlines",
		Comment: "Section 3 headline skew: access share of hottest data fraction (paper: tuple 84/71/39%, 4K pages 75/59/28%)",
		Cols:    []string{"hottest_fraction", "tuple_level", "seq_4K_pages", "optimized_4K"},
	}
	for _, f := range []float64{0.20, 0.10, 0.02} {
		s.Add(f, tuple.AccessShareOfHottest(f), page4.AccessShareOfHottest(f), opt4.AccessShareOfHottest(f))
	}
	return s
}

// Fig8 reproduces the miss-rate-vs-buffer-size curves for the customer,
// stock, and item relations under sequential and optimized packing.
func Fig8(st *Study) (Series, error) {
	if err := st.Prefetch(sim.PackSequential, sim.PackOptimized); err != nil {
		return Series{}, err
	}
	seq, _ := st.Curve(sim.PackSequential)
	opt, _ := st.Curve(sim.PackOptimized)
	s := Series{
		Name: "fig8",
		Comment: fmt.Sprintf("Miss rate vs buffer size, %d warehouses, LRU, 90%% CIs <= 5%% required",
			st.Opts.Warehouses),
		Cols: []string{"buffer_MB",
			"customer_seq", "customer_opt",
			"stock_seq", "stock_opt",
			"item_seq", "item_opt"},
	}
	caps := st.Opts.capacities()
	rows, err := parallel.Map(st.Opts.workers(), len(st.Opts.BufferMB), func(i int) ([]float64, error) {
		c := caps[i]
		return []float64{st.Opts.BufferMB[i],
			seq.MissRate(core.Customer, c), opt.MissRate(core.Customer, c),
			seq.MissRate(core.Stock, c), opt.MissRate(core.Stock, c),
			seq.MissRate(core.Item, c), opt.MissRate(core.Item, c)}, nil
	})
	if err != nil {
		return Series{}, err
	}
	s.Rows = rows
	return s, nil
}

// Table3 measures the distinct tuples of each relation touched per
// transaction type and the mix-weighted average — the paper's Table 3
// (whose U(x)/NU(x)/A(x)/P(x) entries count tuples, not calls: a
// select+update pair on one tuple counts once).
func Table3(opts Options) (Series, error) {
	cfg := opts.workload()
	gen, err := workload.New(cfg)
	if err != nil {
		return Series{}, err
	}
	var perTxnRel [core.NumTxnTypes][core.NumRelations]int64
	var perTxn [core.NumTxnTypes]int64
	var txn workload.Txn
	seen := make(map[core.Access]struct{}, 512)
	n := opts.Batches * int(opts.BatchTxns)
	if n > 200_000 {
		n = 200_000 // access counting converges fast
	}
	for i := 0; i < n; i++ {
		gen.Next(&txn)
		perTxn[txn.Type]++
		clear(seen)
		for _, a := range txn.Accesses {
			key := core.Access{Rel: a.Rel, Tuple: a.Tuple}
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			perTxnRel[txn.Type][a.Rel]++
		}
	}
	s := Series{
		Name:    "table3",
		Comment: "Table 3: distinct tuples accessed per transaction, measured (last column = mix-weighted average)",
		Cols: []string{"relation", "new_order", "payment", "order_status",
			"delivery", "stock_level", "average"},
	}
	for _, rel := range core.Relations() {
		row := []float64{float64(rel)}
		var avg float64
		for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
			var per float64
			if perTxn[t] > 0 {
				per = float64(perTxnRel[t][rel]) / float64(perTxn[t])
			}
			row = append(row, per)
			avg += cfg.Mix.Fraction(t) * per
		}
		row = append(row, avg)
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// Fig9 reproduces maximum throughput (new-order tpm) vs buffer size for
// both packings, using the paper's 10 MIPS / 80% utilization system.
func Fig9(st *Study, sys model.SystemParams) (Series, error) {
	if err := st.Prefetch(sim.PackSequential, sim.PackOptimized); err != nil {
		return Series{}, err
	}
	seq, _ := st.Curve(sim.PackSequential)
	opt, _ := st.Curve(sim.PackOptimized)
	s := Series{
		Name:    "fig9",
		Comment: fmt.Sprintf("Max throughput (new-order tpm) vs buffer size, %.0f MIPS @ %.0f%% CPU", sys.MIPS, sys.MaxCPUUtil*100),
		Cols:    []string{"buffer_MB", "tpm_sequential", "tpm_optimized"},
	}
	rows, err := parallel.Map(st.Opts.workers(), len(st.Opts.BufferMB), func(i int) ([]float64, error) {
		tseq := model.MaxThroughput(sys, model.DemandsFromCurve(seq, i), nil)
		topt := model.MaxThroughput(sys, model.DemandsFromCurve(opt, i), nil)
		return []float64{st.Opts.BufferMB[i], tseq.NewOrderPerMin, topt.NewOrderPerMin}, nil
	})
	if err != nil {
		return Series{}, err
	}
	s.Rows = rows
	return s, nil
}

// Fig10 reproduces the price/performance curves: $/tpm vs buffer size for
// sequential and optimized packing, with and without the 180-day growth
// storage requirement.
func Fig10(st *Study, sys model.SystemParams, cost model.CostModel) (Series, error) {
	if err := st.Prefetch(sim.PackSequential, sim.PackOptimized); err != nil {
		return Series{}, err
	}
	seq, _ := st.Curve(sim.PackSequential)
	opt, _ := st.Curve(sim.PackOptimized)
	db := tpcc.Config{Warehouses: st.Opts.Warehouses, PageSize: st.Opts.PageSize}
	noGrow := model.DefaultStorageParams(db, false)
	grow := model.DefaultStorageParams(db, true)
	s := Series{
		Name:    "fig10",
		Comment: "Hardware $ per new-order tpm vs buffer size (cost: CPU + disks + memory)",
		Cols: []string{"buffer_MB",
			"seq_no_growth", "opt_no_growth", "seq_growth", "opt_growth"},
	}
	rows, err := parallel.Map(st.Opts.workers(), len(st.Opts.BufferMB), func(i int) ([]float64, error) {
		mb := st.Opts.BufferMB[i]
		dseq := model.DemandsFromCurve(seq, i)
		dopt := model.DemandsFromCurve(opt, i)
		return []float64{mb,
			model.PricePerformance(sys, cost, noGrow, mb, dseq).CostPerTpm,
			model.PricePerformance(sys, cost, noGrow, mb, dopt).CostPerTpm,
			model.PricePerformance(sys, cost, grow, mb, dseq).CostPerTpm,
			model.PricePerformance(sys, cost, grow, mb, dopt).CostPerTpm}, nil
	})
	if err != nil {
		return Series{}, err
	}
	s.Rows = rows
	return s, nil
}

// Fig10Minima extracts the optimal points of the four Figure 10 curves.
func Fig10Minima(fig10 Series) Series {
	s := Series{
		Name:    "fig10-minima",
		Comment: "Optimal buffer size and $/tpm per curve (paper: 154MB/$139, 84MB/$107, 52MB/$167, 26MB/$154)",
		Cols:    []string{"curve", "best_buffer_MB", "best_cost_per_tpm"},
	}
	for col := 1; col < len(fig10.Cols); col++ {
		bestMB, bestCost := 0.0, 0.0
		for _, row := range fig10.Rows {
			if bestCost == 0 || row[col] < bestCost {
				bestMB, bestCost = row[0], row[col]
			}
		}
		s.Add(float64(col), bestMB, bestCost)
	}
	return s
}

// Fig11 reproduces the scale-up curves: total new-order tpm vs node count
// for the linear ideal, replicated Item, and partitioned Item.
func Fig11(st *Study, sys model.SystemParams, bufferMB float64, nodes []int) (Series, error) {
	opt, err := st.Curve(sim.PackOptimized)
	if err != nil {
		return Series{}, err
	}
	capIdx := nearestCapacity(st.Opts.BufferMB, bufferMB)
	d := model.DemandsFromCurve(opt, capIdx)
	rep := model.Scaleup(sys, d, model.DefaultDistConfig(0, true), nodes)
	part := model.Scaleup(sys, d, model.DefaultDistConfig(0, false), nodes)
	s := Series{
		Name:    "fig11",
		Comment: fmt.Sprintf("Scale-up at %.0fMB buffer, optimized packing (paper: replicated ~3%% off ideal; 10/30/39%% over partitioned at 2/10/30 nodes)", st.Opts.BufferMB[capIdx]),
		Cols:    []string{"nodes", "ideal_tpm", "replicated_tpm", "partitioned_tpm"},
	}
	for i := range nodes {
		s.Add(float64(nodes[i]), rep[i].IdealNewOrderPerMin,
			rep[i].TotalNewOrderPerMin, part[i].TotalNewOrderPerMin)
	}
	return s, nil
}

// Fig12 reproduces the remote-probability sensitivity: total tpm vs node
// count for several remote-stock probabilities (Item replicated).
func Fig12(st *Study, sys model.SystemParams, bufferMB float64, nodes []int, probs []float64) (Series, error) {
	opt, err := st.Curve(sim.PackOptimized)
	if err != nil {
		return Series{}, err
	}
	capIdx := nearestCapacity(st.Opts.BufferMB, bufferMB)
	d := model.DemandsFromCurve(opt, capIdx)
	s := Series{
		Name:    "fig12",
		Comment: "Sensitivity to remote-stock probability (paper: ~44% scale-up loss at p=1.0)",
		Cols:    []string{"nodes"},
	}
	for _, p := range probs {
		s.Cols = append(s.Cols, fmt.Sprintf("tpm_p=%.2f", p))
	}
	for _, n := range nodes {
		row := []float64{float64(n)}
		for _, p := range probs {
			cfg := model.DefaultDistConfig(n, true)
			cfg.RemoteStockProb = p
			rv := cfg.RemoteVisitCounts()
			tp := model.MaxThroughput(sys, d, &rv)
			row = append(row, tp.NewOrderPerMin*float64(n))
		}
		s.Rows = append(s.Rows, row)
	}
	return s, nil
}

// Table4 prints the reconstructed Table 4: per-transaction visit counts,
// CPU path lengths, and measured read I/Os at the given buffer size.
func Table4(st *Study, sys model.SystemParams, bufferMB float64) (Series, error) {
	seq, err := st.Curve(sim.PackSequential)
	if err != nil {
		return Series{}, err
	}
	capIdx := nearestCapacity(st.Opts.BufferMB, bufferMB)
	d := model.DemandsFromCurve(seq, capIdx)
	s := Series{
		Name:    "table4",
		Comment: fmt.Sprintf("Table 4 visit counts + measured IOs at %.0fMB (sequential packing)", st.Opts.BufferMB[capIdx]),
		Cols: []string{"txn_type", "selects", "updates", "inserts", "deletes",
			"non_unique", "joins", "sql_calls", "locks", "read_IOs", "kinstr"},
	}
	for t := core.TxnType(0); t < core.NumTxnTypes; t++ {
		c := d[t].Calls
		instr := model.CPUInstructions(sys.CPU, d[t], model.RemoteVisits{})
		s.Add(float64(t), c.Selects, c.Updates, c.Inserts, c.Deletes,
			c.NonUnique, c.Joins, c.SQLCalls, c.Locks, d[t].ReadIOs, instr/1000)
	}
	return s, nil
}

// Tables6and7 prints the Appendix A expectations and the resulting
// distributed visit-count deltas for a range of node counts.
func Tables6and7(nodes []int) Series {
	s := Series{
		Name:    "tables6-7",
		Comment: "Appendix A expectations and Tables 6/7 remote visit counts",
		Cols: []string{"nodes", "U_stock", "RC_stock", "L_stock", "U_cust", "RC_cust",
			"U_item", "U_stock_item",
			"rep_NO_sendrecv", "part_NO_sendrecv", "rep_NO_prep", "part_NO_commit_extra"},
	}
	for _, n := range nodes {
		rep := model.DefaultDistConfig(n, true)
		part := model.DefaultDistConfig(n, false)
		e := part.Expect()
		rv := rep.RemoteVisitCounts()
		pv := part.RemoteVisitCounts()
		s.Add(float64(n), e.UStock, e.RCStock, e.LStock, e.UCust, e.RCCust,
			e.UItem, e.UStockItem,
			rv[core.TxnNewOrder].SendReceive, pv[core.TxnNewOrder].SendReceive,
			rv[core.TxnNewOrder].PrepCommit, pv[core.TxnNewOrder].CommitExtra)
	}
	return s
}

// PolicyAblation tests the paper's hypothesis that smarter replacement
// policies widen the optimized-vs-sequential gap: overall miss rates per
// policy per packing at one buffer size.
func PolicyAblation(opts Options, bufferMB float64, policies []string) (Series, error) {
	s := Series{
		Name:    "policy-ablation",
		Comment: fmt.Sprintf("Overall miss rate by replacement policy at %.0fMB (Section 4 hypothesis)", bufferMB),
		Cols:    []string{"policy", "sequential", "optimized", "gap"},
	}
	pages := sim.PagesForBytes(int64(bufferMB*(1<<20)), opts.PageSize)
	tr, err := opts.trace()
	if err != nil {
		return Series{}, err
	}
	// The policy x packing grid: every cell is an independent direct
	// simulation replaying the shared trace; collect by cell index.
	packs := []sim.Packing{sim.PackSequential, sim.PackOptimized}
	rates, err := parallel.Map(opts.workers(), len(policies)*len(packs), func(cell int) (float64, error) {
		res, err := sim.Run(sim.Config{
			Workload:    opts.workload(),
			Packing:     packs[cell%len(packs)],
			Policy:      policies[cell/len(packs)],
			BufferPages: pages,
			WarmupTxns:  opts.WarmupTxns,
			Batches:     opts.Batches,
			BatchTxns:   opts.BatchTxns,
			Level:       opts.Level,
			Trace:       tr,
		})
		if err != nil {
			return 0, err
		}
		return res.Overall.MissRate(), nil
	})
	if err != nil {
		return Series{}, err
	}
	for pi := range policies {
		seq, opt := rates[pi*len(packs)], rates[pi*len(packs)+1]
		s.Add(float64(pi), seq, opt, seq-opt)
	}
	return s, nil
}

func nearestCapacity(bufferMB []float64, target float64) int {
	best := 0
	for i, mb := range bufferMB {
		if abs(mb-target) < abs(bufferMB[best]-target) {
			best = i
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
