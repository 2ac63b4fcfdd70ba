package db

import (
	"fmt"

	"tpccmodel/internal/core"
	"tpccmodel/internal/engine/index"
	"tpccmodel/internal/engine/lock"
	"tpccmodel/internal/engine/storage"
	"tpccmodel/internal/engine/wal"
	"tpccmodel/internal/tpcc"
)

// This file is the engine's two-phase-commit surface. A distributed
// transaction is a home branch on its coordinator shard plus participant
// branches on remote shards, each an ordinary strict-2PL transaction on
// its own DB instance. The protocol is presumed abort:
//
//   - participant branches PREPARE (a forced wal.RecPrepare carrying the
//     gid), after which they survive any crash as in-doubt state;
//   - the home branch never prepares — its forced commit record, carrying
//     the gid, IS the global decision record;
//   - a participant commit/abort record also carries the gid, closing the
//     branch;
//   - a recovering participant finds prepared-but-undecided branches,
//     rolls their rows back to before-images, re-locks them exclusively,
//     and asks the coordinator's outcome map (GIDOutcome). No durable
//     decision at the coordinator means abort — so abort paths never
//     require logging, only commit decisions do.

// Branch is one open branch of a distributed transaction: a transaction
// that has executed its operations but not yet committed, exposed so a
// coordinator can drive prepare/commit/abort across shards.
type Branch struct {
	t        *txn
	gid      uint64
	prepared bool
}

// GID returns the branch's global transaction id.
func (b *Branch) GID() uint64 { return b.gid }

// Prepare forces a prepare record: the branch's writes and its vote
// survive any crash after this returns. A failed force aborts the branch
// (it voted no) and returns the error.
//
// Under CCSSI the serializability validation runs HERE, not at commit: a
// prepared branch has voted yes and must be able to commit whatever the
// coordinator decides, so this is the last moment the branch may abort
// itself. PreCommit also latches the transaction's conflict record —
// from here on, a concurrent transaction that would complete a dangerous
// structure through this branch aborts itself instead. Cross-shard
// serializability is still only per-shard (each shard validates its own
// edge graph; no global cycle detection), the same honesty caveat as the
// per-shard snapshot cut.
func (b *Branch) Prepare() error {
	if err := b.t.validate(); err != nil {
		_ = b.t.rollbackWith(b.gid)
		return ErrSSIAbort
	}
	if _, err := b.t.d.log.Append(wal.Record{
		Txn: uint64(b.t.id), Type: wal.RecPrepare, RID: b.gid,
	}); err != nil {
		_ = b.t.rollbackWith(b.gid)
		return err
	}
	b.prepared = true
	return nil
}

// Commit forces the branch's commit record (carrying the gid) and
// releases its locks. On the home branch this record is the global
// decision. A failed force leaves the branch open — locks held, undo
// intact — so the caller may retry, abort, or (device dead) Forsake.
func (b *Branch) Commit() error { return b.t.commitWith(b.gid) }

// Abort rolls the branch back: undo in reverse, an abort record carrying
// the gid (best-effort — presumed abort needs no durable decision), and
// lock release.
func (b *Branch) Abort() error { return b.t.rollbackWith(b.gid) }

// Forsake abandons the branch without logging or undo: locks are
// released and the in-memory undo list is dropped. Only valid when the
// shard's device is dead — the durable log then owns the branch's fate
// (in-doubt if prepared, presumed abort otherwise) and crash recovery
// will restore a correct state. On a live device Forsake would corrupt:
// other transactions could overwrite rows recovery later re-applies.
func (b *Branch) Forsake() {
	b.t.undo = b.t.undo[:0]
	if b.t.d.ccMVCC {
		// Drop the chain state too (pop versions, clear writer marks,
		// deregister the snapshot); nil retire ring — the dead device's
		// recovery path resets the whole store anyway.
		b.t.d.mvcc.Abort(&b.t.mv, nil)
	}
	b.t.d.locks.ReleaseAll(b.t.id)
}

// setOutcome records a gid decision in the coordinator's outcome map.
func (d *DB) setOutcome(gid uint64, committed bool) {
	d.distMu.Lock()
	if d.outcomes == nil {
		d.outcomes = make(map[uint64]bool)
	}
	d.outcomes[gid] = committed
	d.distMu.Unlock()
}

// GIDOutcome reports this coordinator's decision for gid. known=false
// means no decision is recorded — under presumed abort the caller must
// treat that as aborted (the gid never reached its decision record).
func (d *DB) GIDOutcome(gid uint64) (committed, known bool) {
	d.distMu.Lock()
	defer d.distMu.Unlock()
	committed, known = d.outcomes[gid]
	return committed, known
}

// InDoubt returns the in-doubt branches the most recent recovery
// surfaced, in prepare order.
func (d *DB) InDoubt() []wal.InDoubtTxn {
	d.distMu.Lock()
	defer d.distMu.Unlock()
	return append([]wal.InDoubtTxn(nil), d.inDoubt...)
}

// lockKeyFor derives the logical row-lock key a log record's row maps to.
// Only the relations participant branches write need translating.
func lockKeyFor(r wal.Record) (lock.Key, error) {
	img := r.Before
	if img == nil {
		img = r.After
	}
	if img == nil {
		return lock.Key{}, fmt.Errorf("db: record %s table %d has no image", r.Type, r.Table)
	}
	switch core.Relation(r.Table) {
	case core.Stock:
		var rec StockRec
		rec.Unmarshal(img)
		return lock.Key{Table: r.Table, Row: index.KeyWI(int64(rec.WID), int64(rec.IID))}, nil
	case core.Customer:
		var rec CustomerRec
		rec.Unmarshal(img)
		return lock.Key{Table: r.Table, Row: index.KeyWDC(int64(rec.WID), int64(rec.DID), int64(rec.ID))}, nil
	default:
		return lock.Key{}, fmt.Errorf("db: in-doubt record on unexpected relation %s",
			core.Relation(r.Table))
	}
}

// relockInDoubt re-acquires exclusive locks on every in-doubt branch's
// rows, so post-recovery traffic cannot write rows whose final state is
// still undecided. Runs on the quiesced recovery path: all locks are free
// and acquisition cannot block.
func (d *DB) relockInDoubt(branches []wal.InDoubtTxn) error {
	for _, b := range branches {
		for _, r := range b.Records {
			key, err := lockKeyFor(r)
			if err != nil {
				return err
			}
			if err := d.locks.Acquire(lock.TxnID(b.Txn), key, lock.Exclusive); err != nil {
				return fmt.Errorf("db: re-locking in-doubt gid %d: %w", b.GID, err)
			}
		}
	}
	return nil
}

// ResolveInDoubt settles one in-doubt branch with the coordinator's
// decision. Commit decisions are made crash-safe BEFORE any row changes:
// the decision record is forced first, so a crash mid-resolution either
// leaves the branch in-doubt (decision not durable, resolution re-runs)
// or recovers it as a normally committed transaction (decision durable,
// after-images re-applied by recovery itself). Abort is the presumed
// path: rows already hold before-images, so only locks need releasing.
func (d *DB) ResolveInDoubt(gid uint64, commit bool) error {
	d.distMu.Lock()
	idx := -1
	for i, b := range d.inDoubt {
		if b.GID == gid {
			idx = i
			break
		}
	}
	if idx < 0 {
		d.distMu.Unlock()
		return fmt.Errorf("db: no in-doubt branch for gid %d", gid)
	}
	b := d.inDoubt[idx]
	d.distMu.Unlock()

	if commit {
		if _, err := d.log.Append(wal.Record{
			Txn: b.Txn, Type: wal.RecCommit, RID: gid,
		}); err != nil {
			return err
		}
		rebuild := false
		for _, r := range b.Records {
			h := d.heaps[r.Table]
			if err := (heapApplier{h: h}).Apply(r.RID, r.After); err != nil {
				return fmt.Errorf("db: re-applying gid %d: %w", gid, err)
			}
			if r.Type != wal.RecUpdate {
				// Inserts/deletes change index membership; participant
				// branches are update-only today, but stay correct if
				// that ever changes.
				rebuild = true
			}
		}
		if rebuild {
			if err := d.RebuildIndexes(); err != nil {
				return err
			}
		}
		d.commits.Add(1)
	} else {
		_, _, _ = d.log.PreCommit(wal.Record{Txn: b.Txn, Type: wal.RecAbort, RID: gid})
		d.aborts.Add(1)
	}
	d.locks.ReleaseAll(lock.TxnID(b.Txn))

	d.distMu.Lock()
	for i := range d.inDoubt {
		if d.inDoubt[i].GID == gid {
			d.inDoubt = append(d.inDoubt[:i], d.inDoubt[i+1:]...)
			break
		}
	}
	d.distMu.Unlock()
	return nil
}

// NewOrderHomeBegin executes the home-shard share of a distributed
// New-Order and returns the open branch for the coordinator to finish.
// Items flagged Remote are supplied by another shard: their stock update
// happens in that shard's participant branch, while the item read (Item
// is replicated on every shard) and the order-line insert — whose
// SupplyWID column records the GLOBAL supplier warehouse id — stay home.
// An error means the branch already rolled back (ErrAborted = retry).
func (d *DB) NewOrderHomeBegin(gid uint64, in NewOrderInput) (*Branch, NewOrderResult, error) {
	t := d.begin()
	var res NewOrderResult

	var wrec WarehouseRec
	wrid, ok := d.warehouseIdx.get(uint64(in.W))
	if !ok {
		return nil, res, t.fail(fmt.Errorf("db: no warehouse %d", in.W))
	}
	buf := t.buf
	if _, err := t.snapRead(core.Warehouse, uint64(in.W), storage.UnpackRID(wrid), buf[:tpcc.TupleLen[core.Warehouse]]); err != nil {
		return nil, res, t.fail(err)
	}
	wrec.Unmarshal(buf[:tpcc.TupleLen[core.Warehouse]])

	dkey := index.KeyWD(in.W, in.D)
	if err := t.lockRow(core.District, dkey, lock.Exclusive); err != nil {
		return nil, res, t.fail(err)
	}
	drid, ok := d.districtIdx.get(dkey)
	if !ok {
		return nil, res, t.fail(fmt.Errorf("db: no district (%d,%d)", in.W, in.D))
	}
	dlen := tpcc.TupleLen[core.District]
	if err := t.readRec(core.District, storage.UnpackRID(drid), buf[:dlen]); err != nil {
		return nil, res, t.fail(err)
	}
	var drec DistrictRec
	drec.Unmarshal(buf[:dlen])
	oid := int64(drec.NextOID)
	drec.NextOID++
	drec.Marshal(t.img[:dlen])
	if err := t.updateRow(core.District, dkey, storage.UnpackRID(drid), buf[:dlen], t.img[:dlen]); err != nil {
		return nil, res, t.fail(err)
	}

	ckey := index.KeyWDC(in.W, in.D, in.C)
	crid, ok := d.customerIdx.get(ckey)
	if !ok {
		return nil, res, t.fail(fmt.Errorf("db: no customer (%d,%d,%d)", in.W, in.D, in.C))
	}
	if _, err := t.snapRead(core.Customer, ckey, storage.UnpackRID(crid), buf[:tpcc.TupleLen[core.Customer]]); err != nil {
		return nil, res, t.fail(err)
	}

	allLocal := uint8(1)
	for _, it := range in.Items {
		if it.Remote {
			allLocal = 0
		}
	}
	okey := index.KeyWDO(in.W, in.D, oid)
	if err := t.lockRow(core.Order, okey, lock.Exclusive); err != nil {
		return nil, res, t.fail(err)
	}
	orec := OrderRec{
		OID: uint32(oid), CID: uint32(in.C), WID: uint16(in.W), DID: uint8(in.D),
		OLCount: uint8(len(in.Items)), AllLocal: allLocal, EntryTick: d.nextTick(),
	}
	olen := tpcc.TupleLen[core.Order]
	orec.Marshal(buf[:olen])
	orid, err := t.insertRow(core.Order, okey, buf[:olen])
	if err != nil {
		return nil, res, t.fail(err)
	}
	t.setIdx(d.orderIdx, okey, orid.Pack())
	t.setIdx(d.custOrderIdx, index.KeyWDCO(in.W, in.D, in.C, oid), orid.Pack())

	if err := t.lockRow(core.NewOrder, okey, lock.Exclusive); err != nil {
		return nil, res, t.fail(err)
	}
	norec := NewOrderRec{OID: uint32(oid), WID: uint16(in.W), DID: uint8(in.D)}
	nolen := tpcc.TupleLen[core.NewOrder]
	norec.Marshal(buf[:nolen])
	norid, err := t.insertRow(core.NewOrder, okey, buf[:nolen])
	if err != nil {
		return nil, res, t.fail(err)
	}
	t.setIdx(d.newOrderIdx, okey, norid.Pack())

	ilen := tpcc.TupleLen[core.Item]
	slen := tpcc.TupleLen[core.Stock]
	ollen := tpcc.TupleLen[core.OrderLine]
	for n, it := range in.Items {
		irid, ok := d.itemIdx.get(uint64(it.IID))
		if !ok {
			return nil, res, t.fail(fmt.Errorf("db: no item %d", it.IID))
		}
		if _, err := t.snapRead(core.Item, uint64(it.IID), storage.UnpackRID(irid), buf[:ilen]); err != nil {
			return nil, res, t.fail(err)
		}
		var irec ItemRec
		irec.Unmarshal(buf[:ilen])

		if !it.Remote {
			skey := index.KeyWI(it.SupplyW, it.IID)
			if err := t.lockRow(core.Stock, skey, lock.Exclusive); err != nil {
				return nil, res, t.fail(err)
			}
			srid, ok := d.stockIdx.get(skey)
			if !ok {
				return nil, res, t.fail(fmt.Errorf("db: no stock (%d,%d)", it.SupplyW, it.IID))
			}
			if err := t.readRec(core.Stock, storage.UnpackRID(srid), buf[:slen]); err != nil {
				return nil, res, t.fail(err)
			}
			var srec StockRec
			srec.Unmarshal(buf[:slen])
			applyStockOrder(&srec, it.Qty, false)
			srec.Marshal(t.img[:slen])
			if err := t.updateRow(core.Stock, skey, storage.UnpackRID(srid), buf[:slen], t.img[:slen]); err != nil {
				return nil, res, t.fail(err)
			}
		} else {
			res.RemoteLines++
		}

		amount := uint32(it.Qty) * irec.PriceCents
		olkey := index.KeyWDOL(in.W, in.D, oid, int64(n))
		if err := t.lockRow(core.OrderLine, olkey, lock.Exclusive); err != nil {
			return nil, res, t.fail(err)
		}
		olrec := OrderLineRec{
			OID: uint32(oid), IID: uint32(it.IID), SupplyWID: uint16(it.SupplyW),
			WID: uint16(in.W), DID: uint8(in.D), Number: uint8(n),
			Quantity: uint8(it.Qty), AmountCents: amount,
		}
		olrec.Marshal(buf[:ollen])
		olrid, err := t.insertRow(core.OrderLine, olkey, buf[:ollen])
		if err != nil {
			return nil, res, t.fail(err)
		}
		t.setIdx(d.olIdx, olkey, olrid.Pack())
		res.TotalCents += uint64(amount)
	}

	res.OID = oid
	return &Branch{t: t, gid: gid}, res, nil
}

// applyStockOrder applies the New-Order stock mutation rules in place.
func applyStockOrder(s *StockRec, qty int64, remote bool) {
	s.Quantity -= int32(qty)
	if s.Quantity < 10 {
		s.Quantity += 91
	}
	s.YTD += uint64(qty)
	s.OrderCount++
	if remote {
		s.RemoteCnt++
	}
}

// RemoteStockBegin executes a participant's share of a distributed
// New-Order: the stock read+update for the items this shard supplies.
// Each item's SupplyW must be a warehouse LOCAL to this instance; every
// update counts as remote (s_remote_cnt). The order-line rows live on the
// home shard. An error means the branch already rolled back.
func (d *DB) RemoteStockBegin(gid uint64, items []OrderItem) (*Branch, error) {
	t := d.begin()
	slen := tpcc.TupleLen[core.Stock]
	buf := t.buf
	for _, it := range items {
		skey := index.KeyWI(it.SupplyW, it.IID)
		if err := t.lockRow(core.Stock, skey, lock.Exclusive); err != nil {
			return nil, t.fail(err)
		}
		srid, ok := d.stockIdx.get(skey)
		if !ok {
			return nil, t.fail(fmt.Errorf("db: no stock (%d,%d)", it.SupplyW, it.IID))
		}
		if err := t.readRec(core.Stock, storage.UnpackRID(srid), buf[:slen]); err != nil {
			return nil, t.fail(err)
		}
		var srec StockRec
		srec.Unmarshal(buf[:slen])
		applyStockOrder(&srec, it.Qty, true)
		srec.Marshal(t.img[:slen])
		if err := t.updateRow(core.Stock, skey, storage.UnpackRID(srid), buf[:slen], t.img[:slen]); err != nil {
			return nil, t.fail(err)
		}
	}
	return &Branch{t: t, gid: gid}, nil
}

// PaymentHomeBegin executes the home-shard share of a remote Payment:
// warehouse and district YTD updates plus the history insert. The
// customer update happens on the customer's shard (RemotePaymentBegin);
// custW/custD/custC are GLOBAL coordinates recorded in the history row.
func (d *DB) PaymentHomeBegin(gid uint64, in PaymentInput, custW, custD, custC int64) (*Branch, error) {
	t := d.begin()
	buf := t.buf

	wlen := tpcc.TupleLen[core.Warehouse]
	if err := t.lockRow(core.Warehouse, uint64(in.W), lock.Exclusive); err != nil {
		return nil, t.fail(err)
	}
	wrid, ok := d.warehouseIdx.get(uint64(in.W))
	if !ok {
		return nil, t.fail(fmt.Errorf("db: no warehouse %d", in.W))
	}
	if err := t.readRec(core.Warehouse, storage.UnpackRID(wrid), buf[:wlen]); err != nil {
		return nil, t.fail(err)
	}
	var wrec WarehouseRec
	wrec.Unmarshal(buf[:wlen])
	wrec.YTDCents += uint64(in.AmountCents)
	wrec.Marshal(t.img[:wlen])
	if err := t.updateRow(core.Warehouse, uint64(in.W), storage.UnpackRID(wrid), buf[:wlen], t.img[:wlen]); err != nil {
		return nil, t.fail(err)
	}

	dlen := tpcc.TupleLen[core.District]
	dkey := index.KeyWD(in.W, in.D)
	if err := t.lockRow(core.District, dkey, lock.Exclusive); err != nil {
		return nil, t.fail(err)
	}
	drid, ok := d.districtIdx.get(dkey)
	if !ok {
		return nil, t.fail(fmt.Errorf("db: no district (%d,%d)", in.W, in.D))
	}
	if err := t.readRec(core.District, storage.UnpackRID(drid), buf[:dlen]); err != nil {
		return nil, t.fail(err)
	}
	var drec DistrictRec
	drec.Unmarshal(buf[:dlen])
	drec.YTDCents += uint64(in.AmountCents)
	drec.Marshal(t.img[:dlen])
	if err := t.updateRow(core.District, dkey, storage.UnpackRID(drid), buf[:dlen], t.img[:dlen]); err != nil {
		return nil, t.fail(err)
	}

	hlen := tpcc.TupleLen[core.History]
	hrec := HistoryRec{
		CID: uint32(custC), CWID: uint16(custW), CDID: uint8(custD),
		DID: uint8(in.D), WID: uint16(in.W),
		AmountCents: in.AmountCents, Tick: d.nextTick(),
	}
	hrec.Marshal(buf[:hlen])
	if _, err := t.insertRec(core.History, buf[:hlen]); err != nil {
		return nil, t.fail(err)
	}
	return &Branch{t: t, gid: gid}, nil
}

// RemotePaymentBegin executes the customer's-shard share of a remote
// Payment: select the customer (by id or by last-name ordinal, LOCAL
// warehouse/district coordinates) and apply the balance/ytd/payment-count
// update. It returns the resolved customer id — so the coordinator can
// record it in the home shard's history row — and the number of customer
// tuples the selection touched (1 by id, the name-group size by name),
// the Appendix A remote-call measurement.
func (d *DB) RemotePaymentBegin(gid uint64, w, dist int64, byName bool, c, nameOrd int64, amountCents uint32) (*Branch, int64, int, error) {
	t := d.begin()
	buf := t.buf

	cid, selected := c, 1
	if byName {
		var err error
		cid, selected, err = t.middleCustomerByName(w, dist, nameOrd, buf)
		if err != nil {
			return nil, 0, 0, t.fail(err)
		}
	}
	clen := tpcc.TupleLen[core.Customer]
	ckey := index.KeyWDC(w, dist, cid)
	if err := t.lockRow(core.Customer, ckey, lock.Exclusive); err != nil {
		return nil, 0, 0, t.fail(err)
	}
	crid, ok := d.customerIdx.get(ckey)
	if !ok {
		return nil, 0, 0, t.fail(fmt.Errorf("db: no customer (%d,%d,%d)", w, dist, cid))
	}
	if err := t.readRec(core.Customer, storage.UnpackRID(crid), buf[:clen]); err != nil {
		return nil, 0, 0, t.fail(err)
	}
	var crec CustomerRec
	crec.Unmarshal(buf[:clen])
	crec.BalanceCents -= int64(amountCents)
	crec.YTDPayCents += uint64(amountCents)
	crec.PaymentCount++
	crec.Marshal(t.img[:clen])
	if err := t.updateRow(core.Customer, ckey, storage.UnpackRID(crid), buf[:clen], t.img[:clen]); err != nil {
		return nil, 0, 0, t.fail(err)
	}
	return &Branch{t: t, gid: gid}, cid, selected, nil
}
