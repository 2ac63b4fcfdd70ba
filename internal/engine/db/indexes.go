package db

import (
	"encoding/binary"
	"errors"
	"sync"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
)

// idxID names one of the memory-resident indexes.
type idxID uint8

const (
	idxWarehouse idxID = iota // w            -> RID, dense
	idxDistrict               // (w,d)        -> RID, dense
	idxCustomer               // (w,d,c)      -> RID, dense
	idxCustName               // (w,d,name,c) -> RID
	idxStock                  // (w,i)        -> RID, dense
	idxItem                   // i            -> RID, dense
	idxOrder                  // (w,d,o)      -> RID
	idxCustOrder              // (w,d,c,o)    -> RID
	idxNewOrder               // (w,d,o)      -> RID
	idxOrderLine              // (w,d,o,line) -> RID
	numIndexes
)

// indexes declares every index once: the relation whose rows it files,
// whether it is an index.Dense (relIndex), and the key it files a row image
// under, packed from the key columns where the record's Marshal puts them
// (schema.go; TestIndexKeysReadTheKeyColumns pins every offset). A
// relation's first index is its primary one, and its key is also the row's
// lock and version-chain key (rowKey). The indexes are derived state, as the
// paper's one-lookup-per-select pricing implies: every path that adds or
// removes a row — Load, RebuildIndexes, insertRow and deleteRow, rollback and
// in-doubt resolution (replay) — files or unfiles it through this table,
// from the row's own bytes. History has no index.
var indexes = [numIndexes]struct {
	rel   core.Relation
	dense bool
	key   func(rec []byte) uint64
}{
	idxWarehouse: {core.Warehouse, true, func(b []byte) uint64 { return uint64(col32(b, 0)) }},
	idxDistrict:  {core.District, true, func(b []byte) uint64 { return index.KeyWD(col32(b, 4), col32(b, 0)) }},
	idxCustomer:  {core.Customer, true, func(b []byte) uint64 { return index.KeyWDC(col32(b, 8), col32(b, 4), col32(b, 0)) }},
	idxCustName:  {core.Customer, false, func(b []byte) uint64 { return index.KeyWDNC(col32(b, 8), col32(b, 4), col32(b, 12), col32(b, 0)) }},
	idxStock:     {core.Stock, true, func(b []byte) uint64 { return index.KeyWI(col32(b, 4), col32(b, 0)) }},
	idxItem:      {core.Item, true, func(b []byte) uint64 { return uint64(col32(b, 0)) }},
	idxOrder:     {core.Order, false, func(b []byte) uint64 { return index.KeyWDO(col16(b, 8), col8(b, 10), col32(b, 0)) }},
	idxCustOrder: {core.Order, false, func(b []byte) uint64 { return index.KeyWDCO(col16(b, 8), col8(b, 10), col32(b, 4), col32(b, 0)) }},
	idxNewOrder:  {core.NewOrder, false, func(b []byte) uint64 { return index.KeyWDO(col16(b, 4), col8(b, 6), col32(b, 0)) }},
	idxOrderLine: {core.OrderLine, false, func(b []byte) uint64 { return index.KeyWDOL(col16(b, 10), col8(b, 12), col32(b, 0), col8(b, 13)) }},
}

// col8, col16 and col32 read the little-endian key column at byte off of a
// row image.
func col8(b []byte, off int) int64  { return int64(b[off]) }
func col16(b []byte, off int) int64 { return int64(binary.LittleEndian.Uint16(b[off:])) }
func col32(b []byte, off int) int64 { return int64(binary.LittleEndian.Uint32(b[off:])) }

// filedIn lists each relation's indexes in table order, its primary first.
var filedIn = func() (out [core.NumRelations][]idxID) {
	for i, x := range indexes {
		out[x.rel] = append(out[x.rel], idxID(i))
	}
	return out
}()

// rowKey returns the key the row image rec of rel is locked, versioned and
// primarily indexed under; false for History, which has no key.
func rowKey(rel core.Relation, rec []byte) (uint64, bool) {
	if len(filedIn[rel]) == 0 {
		return 0, false
	}
	return indexes[filedIn[rel][0]].key(rec), true
}

// primary returns rel's primary index.
func (d *DB) primary(rel core.Relation) *relIndex { return d.idx[filedIn[rel][0]] }

// file enters the row image rec, stored at rid, into every index of rel.
func (d *DB) file(rel core.Relation, rec []byte, rid storage.RID) {
	for _, i := range filedIn[rel] {
		d.idx[i].set(indexes[i].key(rec), rid.Pack())
	}
}

// unfile removes the row image rec from every index of rel, failing at the
// first that does not hold the row's key.
func (d *DB) unfile(rel core.Relation, rec []byte) error {
	for _, i := range filedIn[rel] {
		if err := d.idx[i].delete(indexes[i].key(rec)); err != nil {
			return err
		}
	}
	return nil
}

// replay redoes the data record r on its row through a, or with undo set
// takes it back off, and keeps the indexes in step from the record's own
// images, so no key costs a heap read: a row the step removes is unfiled
// before it (the heap step runs even if an index lacked the row), a row it
// adds is filed after it. An update moves no key. A
// heap step that fails with storage.ErrTransientIO is tried again up to
// retries more times (it fails at the pin, before it touches the page); the
// index steps run once.
func (d *DB) replay(a wal.Applier, r wal.Record, undo bool, retries int) error {
	gone, added, step := r.Before, r.After, wal.Redo
	if undo {
		gone, added, step = r.After, r.Before, wal.Undo
	}
	if r.Type == wal.RecUpdate {
		gone, added = nil, nil // spans, not rows
	}
	rel := core.Relation(r.Table)
	var unfiled error
	if gone != nil {
		unfiled = d.unfile(rel, gone)
	}
	err := step(a, r)
	for try := 0; try < retries && errors.Is(err, storage.ErrTransientIO); try++ {
		err = step(a, r)
	}
	if err == nil && added != nil {
		d.file(rel, added, storage.UnpackRID(r.RID))
	}
	return errors.Join(unfiled, err)
}

// RebuildIndexes reconstructs every index from the heap contents.
func (d *DB) RebuildIndexes() error {
	d.resetIndexes()
	for _, rel := range core.Relations() {
		if len(filedIn[rel]) == 0 {
			continue
		}
		if err := d.heaps[rel].Scan(func(rid storage.RID, rec []byte) bool {
			d.file(rel, rec, rid)
			return true
		}); err != nil {
			return err
		}
	}
	return nil
}

// resetIndexes empties every index.
func (d *DB) resetIndexes() {
	for i, x := range indexes {
		if x.dense {
			d.idx[i] = &relIndex{dense: index.NewDense()}
		} else {
			d.idx[i] = &relIndex{t: index.New()}
		}
	}
}

// relIndex is one memory-resident index. A relation TPC-C only probes by
// key, never range-scans, never reads through min/max and never grows past
// its load gets a direct-addressed index.Dense, which a probe reads without
// a latch; every other index is a B+tree behind a reader/writer latch,
// since its transactions run on many goroutines. Exactly one of dense and t
// is set; min, max and ascendRange need t.
type relIndex struct {
	dense *index.Dense
	mu    sync.RWMutex
	t     *index.BTree
}

func (g *relIndex) get(k uint64) (uint64, bool) {
	if g.dense != nil {
		return g.dense.Get(k)
	}
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.t.Get(k)
}

// set panics on a key Dense refuses: Config.Validate bounds the warehouse
// ids so that every key a dense relation packs lies below
// index.DenseLimit.
func (g *relIndex) set(k, v uint64) {
	if g.dense != nil {
		if err := g.dense.Set(k, v); err != nil {
			panic(err)
		}
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.t.Set(k, v)
}

func (g *relIndex) delete(k uint64) error {
	if g.dense != nil {
		return g.dense.Delete(k)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.t.Delete(k)
}

func (g *relIndex) min(lo uint64) (uint64, uint64, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.t.Min(lo)
}

func (g *relIndex) max(hi uint64) (uint64, uint64, bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.t.Max(hi)
}

func (g *relIndex) ascendRange(lo, hi uint64, fn func(k, v uint64) bool) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	g.t.AscendRange(lo, hi, fn)
}
