// Pre-mapped traces. A sweep grid replays one recorded tuple stream into
// many cells, and every cell sharing a (packing, page size) pair performs
// the identical tuple-to-page translation per access. MapPages performs
// that translation once, producing a stream of flat page ordinals that the
// dense stack-distance kernel consumes directly: no mapper call, no PageID
// construction, no hashing per access per cell. The TraceCache memoizes the
// mapped form per (trace, packing, page size) alongside the raw trace.
package sim

import (
	"fmt"
	"math"
	"sync"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
	"tpccmodel/internal/workload"
)

// ordinalMapper assigns every (relation, page) pair a dense flat ordinal.
// Statically sized relations own fixed contiguous ranges computed once from
// the schema (tpcc.Config.PageOrdinalBases); the append-only relations form
// a growable tail segment starting at the static total, with ordinals
// handed out in first-appearance order. Within a growing relation, pages
// appear in increasing page-ordinal order (tuple ordinals are append-only),
// so the per-relation tail tables grow only at the end.
type ordinalMapper struct {
	base [core.NumRelations]int64   // static relations: flat base; growing: -1
	tail [core.NumRelations][]int64 // growing relations: page -> flat ordinal
	next int64                      // next unassigned tail ordinal
}

func newOrdinalMapper(db tpcc.Config) *ordinalMapper {
	bases, total := db.PageOrdinalBases()
	return &ordinalMapper{base: bases, next: total}
}

// ordinal returns the flat ordinal of page `page` of relation rel,
// assigning tail ordinals on first appearance.
func (o *ordinalMapper) ordinal(rel core.Relation, page int64) int64 {
	if b := o.base[rel]; b >= 0 {
		return b + page
	}
	t := o.tail[rel]
	if page >= int64(len(t)) {
		for p := int64(len(t)); p <= page; p++ {
			t = append(t, o.next)
			o.next++
		}
		o.tail[rel] = t
	}
	return t[page]
}

// universe returns one past the largest ordinal assigned so far.
func (o *ordinalMapper) universe() int64 { return o.next }

// MappedTrace is a recorded reference stream with the tuple-to-page packing
// already applied: access k touches flat page ordinal pages[k] of
// relation trace.rels[k]. It is immutable and safe for concurrent replay.
type MappedTrace struct {
	trace *Trace
	// pages holds flat page ordinals as int32: the TPC-C page universe of
	// any supported configuration (Table 1 static pages plus the pages the
	// append-only relations gain over the run) sits far below 2^31;
	// MapPages checks anyway.
	pages    []int32
	universe int64 // every ordinal in pages lies in [0, universe)
}

// MapPages translates the trace's tuple ordinals to flat page ordinals for
// one packing (the per-relation mappers) and page size (db). The result
// replays through the dense kernel without touching the mappers again; one
// mapped trace serves every sweep cell sharing the packing and page size.
func (tr *Trace) MapPages(mappers Mappers, db tpcc.Config) (*MappedTrace, error) {
	om := newOrdinalMapper(db)
	pages := make([]int32, len(tr.rels))
	for k, rel := range tr.rels {
		ord := om.ordinal(rel, mappers[rel].Page(int64(tr.tuples[k])))
		if ord > math.MaxInt32 {
			return nil, fmt.Errorf("sim: page ordinal %d overflows mapped-trace encoding", ord)
		}
		pages[k] = int32(ord)
	}
	return &MappedTrace{trace: tr, pages: pages, universe: om.universe()}, nil
}

// mappedKey identifies one translated form of a trace: the underlying
// stream key plus everything the translation depends on. The packing seed
// is part of cfg inside traceKey, so shuffled packings key correctly; the
// page size is restored here (traceKey normalizes it away).
type mappedKey struct {
	k        traceKey
	packing  Packing
	pageSize int
}

type mappedEntry struct {
	once sync.Once
	mt   *MappedTrace
	err  error
}

// GetMapped returns the memoized pre-mapped form of the cfg/txns trace for
// one packing strategy, recording the trace and performing the translation
// each at most once. Safe for concurrent use.
func (c *TraceCache) GetMapped(cfg workload.Config, txns int64, p Packing) (*MappedTrace, error) {
	tr, err := c.Get(cfg, txns)
	if err != nil {
		return nil, err
	}
	key := mappedKey{k: makeTraceKey(cfg, txns), packing: p, pageSize: cfg.DB.PageSize}
	c.mu.Lock()
	if c.mapped == nil {
		c.mapped = make(map[mappedKey]*mappedEntry)
	}
	e, ok := c.mapped[key]
	if !ok {
		e = &mappedEntry{}
		c.mapped[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		mappers := BuildMappers(cfg.DB, p, cfg.Seed)
		e.mt, e.err = tr.MapPages(mappers, cfg.DB)
	})
	return e.mt, e.err
}
