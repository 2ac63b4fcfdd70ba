package sim

import (
	"fmt"

	"tpccmodel/internal/buffer"
	"tpccmodel/internal/core"
	"tpccmodel/internal/stats"
	"tpccmodel/internal/workload"
)

// Config parameterizes a direct fixed-capacity simulation with a concrete
// replacement policy.
type Config struct {
	// Workload is the reference-stream configuration.
	Workload workload.Config
	// Packing is the tuple-to-page strategy.
	Packing Packing
	// Policy is a buffer.NewPolicy name ("lru", "clock", "2q", ...).
	Policy string
	// BufferPages is the pool capacity in pages.
	BufferPages int64
	// WarmupTxns are run before measurement starts.
	WarmupTxns int64
	// Batches and BatchTxns configure batch means.
	Batches   int
	BatchTxns int64
	// Level is the confidence level (paper: 0.90).
	Level float64
	// Trace, when non-nil, is replayed instead of running the workload
	// generator. It must hold at least WarmupTxns + Batches*BatchTxns
	// transactions of the configured workload; sweep drivers record it once
	// (see TraceCache) and share it across grid cells.
	Trace *Trace
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Workload.Validate(); err != nil {
		return err
	}
	if c.BufferPages <= 0 {
		return fmt.Errorf("sim: buffer pages must be positive")
	}
	if c.Batches < 2 || c.BatchTxns <= 0 {
		return fmt.Errorf("sim: need >= 2 batches of positive size")
	}
	if c.Level <= 0 || c.Level >= 1 {
		return fmt.Errorf("sim: confidence level %v out of (0,1)", c.Level)
	}
	if want := c.WarmupTxns + int64(c.Batches)*c.BatchTxns; c.Trace != nil && c.Trace.Txns() < want {
		return fmt.Errorf("sim: trace holds %d transactions, need %d", c.Trace.Txns(), want)
	}
	return nil
}

// txnSource yields successive transactions: either a live workload
// generator or a positional replay of a shared recorded trace.
type txnSource func(t *workload.Txn)

// newTxnSource builds the stream for a run: replaying tr when non-nil,
// generating from cfg otherwise.
func newTxnSource(cfg workload.Config, tr *Trace) (txnSource, error) {
	if tr != nil {
		var idx int64
		return func(t *workload.Txn) {
			tr.Replay(idx, t)
			idx++
		}, nil
	}
	gen, err := workload.New(cfg)
	if err != nil {
		return nil, err
	}
	return gen.Next, nil
}

// RelStats reports one relation's buffer behaviour.
type RelStats struct {
	Accesses int64
	Misses   int64
	// CI is the batch-means confidence interval of the miss rate; its
	// Mean is the grand mean over batches.
	CI stats.Interval
}

// MissRate returns misses/accesses (0 when the relation is untouched).
func (s RelStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Result holds the outputs of Run.
type Result struct {
	Policy      string
	BufferPages int64
	PerRelation [core.NumRelations]RelStats
	Overall     RelStats
}

// Run executes the direct simulation.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	next, err := newTxnSource(cfg.Workload, cfg.Trace)
	if err != nil {
		return nil, err
	}
	pool, err := buffer.NewPolicy(cfg.Policy, cfg.BufferPages)
	if err != nil {
		return nil, err
	}
	mappers := BuildMappers(cfg.Workload.DB, cfg.Packing, cfg.Workload.Seed)

	res := &Result{Policy: cfg.Policy, BufferPages: cfg.BufferPages}
	var bm [core.NumRelations]*stats.BatchMeans
	for rel := range bm {
		bm[rel] = stats.NewBatchMeans(1)
	}
	overallBM := stats.NewBatchMeans(1)

	var txn workload.Txn
	for i := int64(0); i < cfg.WarmupTxns; i++ {
		next(&txn)
		for _, a := range txn.Accesses {
			pool.Access(core.MakePageID(a.Rel, mappers[a.Rel].Page(a.Tuple)))
		}
	}

	for b := 0; b < cfg.Batches; b++ {
		var acc, miss [core.NumRelations]int64
		var accAll, missAll int64
		for i := int64(0); i < cfg.BatchTxns; i++ {
			next(&txn)
			for _, a := range txn.Accesses {
				page := core.MakePageID(a.Rel, mappers[a.Rel].Page(a.Tuple))
				hit := pool.Access(page)
				acc[a.Rel]++
				accAll++
				if !hit {
					miss[a.Rel]++
					missAll++
				}
			}
		}
		for rel := range acc {
			res.PerRelation[rel].Accesses += acc[rel]
			res.PerRelation[rel].Misses += miss[rel]
			if acc[rel] > 0 {
				bm[rel].Add(float64(miss[rel]) / float64(acc[rel]))
			}
		}
		res.Overall.Accesses += accAll
		res.Overall.Misses += missAll
		if accAll > 0 {
			overallBM.Add(float64(missAll) / float64(accAll))
		}
	}

	for rel := range bm {
		if iv, err := bm[rel].Interval(cfg.Level); err == nil {
			res.PerRelation[rel].CI = iv
		}
	}
	if iv, err := overallBM.Interval(cfg.Level); err == nil {
		res.Overall.CI = iv
	}
	return res, nil
}
