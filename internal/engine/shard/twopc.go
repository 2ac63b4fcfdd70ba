package shard

import (
	"errors"
	"fmt"

	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/storage"
)

// This file is the router: the five procedures over GLOBAL warehouse ids.
// A transaction that touches one shard runs there as the local procedure;
// one that touches several opens a branch per shard and hands them to the
// one two-phase-commit skeleton, decide.

// nextGID allocates a global transaction id. The coordinator shard id
// (plus one, so gid 0 keeps meaning "purely local") rides in the top 16
// bits: a recovering participant derives its coordinator from the gid
// alone, with no extra durable state.
func (c *Cluster) nextGID(coord int) uint64 {
	return uint64(coord+1)<<48 | c.gidSeq.Add(1)
}

// CoordinatorOf extracts the coordinator shard encoded in a gid.
func CoordinatorOf(gid uint64) int { return int(gid>>48) - 1 }

// part is one participant of a distributed transaction: its shard, the
// order lines it supplies (New-Order only, shard-local warehouse ids) and,
// once begun, its branch; a nil branch has not begun or has ended.
type part struct {
	shard int
	items []db.OrderItem
	b     *db.Branch
}

// commitParticipant commits a prepared participant branch whose global
// decision is commit. A shard that cannot force the commit record stops
// (fail-stop): its device is killed and the branch forsaken, the path a
// crashed device already takes, and its recovery commits the branch from
// the durable prepare record and the coordinator's decision. Either way
// the branch has ended and holds no lock: no lock holder is left that is
// not running.
func (c *Cluster) commitParticipant(p part) {
	s := c.shards[p.shard]
	if err := p.b.Commit(); err == nil {
		s.participantCommits.Add(1)
		return
	}
	c.KillShard(p.shard)
	p.b.Forsake()
	s.forsaken.Add(1)
}

// abandon aborts every open branch after a failure. Branches on dead
// devices are forsaken (no undo writes against a dead disk; the durable
// log owns their fate), live ones roll back normally.
func (c *Cluster) abandon(open []part) {
	for _, p := range open {
		switch {
		case p.b == nil: // never begun, or ended by its own failed prepare
		case c.shards[p.shard].Down():
			p.b.Forsake()
			c.shards[p.shard].forsaken.Add(1)
		default:
			if err := p.b.Abort(); err != nil {
				c.markDownOnCrash(p.shard, err)
			}
		}
	}
}

// errClusterDown reports that no shard is alive. Nothing can commit until
// recovery, so the terminal must stop, as it does on a single node's dead
// device, rather than shed every transaction left: it wraps
// storage.ErrCrashed, not db.ErrUnavailable.
var errClusterDown = fmt.Errorf("shard: every shard is down: %w", storage.ErrCrashed)

// live counts the shards that are up.
func (c *Cluster) live() int {
	n := 0
	for _, s := range c.shards {
		if !s.Down() {
			n++
		}
	}
	return n
}

// classifyErr maps a procedure or branch failure on shard id to the
// terminal's contract: a crashed shard becomes typed ErrShardDown (shed)
// while another shard lives, errClusterDown once none does; everything
// else passes through (ErrAborted and transient I/O are retriable).
func (c *Cluster) classifyErr(id int, err error) error {
	if errors.Is(err, storage.ErrCrashed) {
		c.markDownOnCrash(id, err)
		if c.live() == 0 {
			return errClusterDown
		}
		c.shards[id].sheds.Add(1)
		return fmt.Errorf("shard %d died mid-transaction: %w", id, ErrShardDown)
	}
	return err
}

// giveUp ends a distributed transaction that cannot commit: the branches
// still open are abandoned and the failure, which came from shard id, is
// classified for the terminal.
func (c *Cluster) giveUp(hs *Shard, open []part, id int, err error) error {
	c.abandon(open)
	hs.distAborts.Add(1)
	return c.classifyErr(id, err)
}

// homeUp returns the home shard of global warehouse w, or, when that
// shard is dead, the typed, counted refusal (errClusterDown once every
// shard is).
func (c *Cluster) homeUp(w int64) (*Shard, error) {
	hs := c.shards[c.ShardOf(w)]
	if hs.Down() {
		if c.live() == 0 {
			return nil, errClusterDown
		}
		hs.downSheds.Add(1)
		return nil, fmt.Errorf("home shard %d: %w", hs.ID, ErrShardDown)
	}
	return hs, nil
}

// ranLocal accounts for a single-shard procedure that returned err on hs.
func (c *Cluster) ranLocal(hs *Shard, err error) error {
	if err != nil {
		return c.classifyErr(hs.ID, err)
	}
	hs.localCommits.Add(1)
	return nil
}

// decide is the protocol from "every branch is open" on, presumed abort:
// prepare the participants in shard order; force the home branch's commit
// record, which is the global decision; commit each participant. Any
// failure before the decision abandons whatever is still open. The kill
// hooks mark the protocol's in-doubt windows for the torture campaign.
func (c *Cluster) decide(gid uint64, hs *Shard, hb *db.Branch, parts []part) error {
	for i := range parts {
		if err := parts[i].b.Prepare(); err != nil {
			parts[i].b = nil // a failed prepare already rolled back
			return c.giveUp(hs, append(parts, part{shard: hs.ID, b: hb}), parts[i].shard, err)
		}
		if i == 0 {
			c.fireHook(KillMidPrepare, gid)
		}
	}
	c.fireHook(KillAfterPrepare, gid)
	if err := c.commitHome(hs, hb); err != nil {
		return c.giveUp(hs, parts, hs.ID, err)
	}
	c.fireHook(KillBeforeParticipantCommit, gid)
	for _, p := range parts {
		c.commitParticipant(p)
	}
	hs.distCommits.Add(1)
	return nil
}

// commitHome forces the home branch's commit record — the global
// decision. A crashed home device means the decision never became
// durable: presumed abort, surfaced as ErrCoordinatorDown. On a live
// device a failed force (the log has already retried it in place) or a
// failed ssi validation (db.ErrAborted) globally aborts the transaction
// at once; the terminal retries it. Either way the home branch has ended
// on return.
func (c *Cluster) commitHome(hs *Shard, hb *db.Branch) error {
	err := hb.Commit()
	if err == nil {
		return nil
	}
	if errors.Is(err, storage.ErrCrashed) {
		hb.Forsake()
		hs.forsaken.Add(1)
		hs.down.Store(true)
		return fmt.Errorf("home shard %d: %w", hs.ID, ErrCoordinatorDown)
	}
	if aerr := hb.Abort(); aerr != nil {
		c.markDownOnCrash(hs.ID, aerr)
	}
	return fmt.Errorf("home shard %d: decision force failed: %w", hs.ID, err)
}

// ExecNewOrder executes a New-Order whose warehouse ids (W and every
// SupplyW) are GLOBAL. Items supplied by the home shard run in the home
// branch; items supplied by other shards become participant branches,
// one per shard. The item split made here is also where Appendix A is
// counted: lines and distinct shards beyond the home shard, on ack.
func (c *Cluster) ExecNewOrder(in db.NewOrderInput) (db.NewOrderResult, error) {
	hs, err := c.homeUp(in.W)
	if err != nil {
		return db.NewOrderResult{}, err
	}
	// Home-shard items get LOCAL supply ids; remote items keep their
	// GLOBAL id on the home order line (the benchmark records the real
	// supplier) and are grouped per participant, in shard order, with
	// LOCAL ids.
	homeIn := db.NewOrderInput{W: c.LocalW(in.W), D: in.D, C: in.C, Items: make([]db.OrderItem, len(in.Items))}
	var parts []part
	var remoteLines int64
	for i, it := range in.Items {
		ps := c.ShardOf(it.SupplyW)
		local := db.OrderItem{IID: it.IID, SupplyW: c.LocalW(it.SupplyW), Qty: it.Qty}
		if ps == hs.ID {
			homeIn.Items[i] = local
			continue
		}
		it.Remote = true
		homeIn.Items[i] = it
		remoteLines++
		k := 0
		for k < len(parts) && parts[k].shard < ps {
			k++
		}
		if k == len(parts) || parts[k].shard != ps {
			parts = append(parts, part{})
			copy(parts[k+1:], parts[k:])
			parts[k] = part{shard: ps}
		}
		parts[k].items = append(parts[k].items, local)
	}

	var res db.NewOrderResult
	if len(parts) == 0 {
		// Single-shard transactions skip the protocol entirely.
		res, err = hs.DB.NewOrder(homeIn)
		err = c.ranLocal(hs, err)
	} else {
		res, err = c.openNewOrder(hs, homeIn, parts)
	}
	if err != nil {
		return db.NewOrderResult{}, err
	}
	c.xval.NewOrders.Add(1)
	c.xval.RemoteLines.Add(remoteLines)
	c.xval.RemoteSites.Add(int64(len(parts)))
	if len(parts) == 0 {
		c.xval.AllLocal.Add(1)
	}
	return res, nil
}

// openNewOrder opens the participant branches in shard order, then the
// home branch, and runs the protocol over them.
func (c *Cluster) openNewOrder(hs *Shard, in db.NewOrderInput, parts []part) (db.NewOrderResult, error) {
	// Graceful degradation: refuse (typed, counted) rather than block
	// when a required participant is already known dead.
	for _, p := range parts {
		if c.shards[p.shard].Down() {
			hs.sheds.Add(1)
			return db.NewOrderResult{}, fmt.Errorf("participant shard %d: %w", p.shard, ErrShardDown)
		}
	}
	gid := c.nextGID(hs.ID)
	for i := range parts {
		p := &parts[i]
		var err error
		if p.b, err = c.shards[p.shard].DB.RemoteStockBegin(gid, p.items); err != nil {
			return db.NewOrderResult{}, c.giveUp(hs, parts, p.shard, err)
		}
	}
	hb, res, err := hs.DB.NewOrderHomeBegin(gid, in)
	if err != nil {
		return res, c.giveUp(hs, parts, hs.ID, err)
	}
	return res, c.decide(gid, hs, hb, parts)
}

// ExecPayment executes a Payment whose W and CW are GLOBAL warehouse
// ids. A customer on another shard runs as a participant branch there
// (resolving by-name selection remotely); the home branch books the
// warehouse/district YTD and the history row with the resolved id. On ack
// a remote-shard customer is counted for Appendix A with the customer
// tuples it touched: the selects plus the write-back.
func (c *Cluster) ExecPayment(in db.PaymentInput) error {
	hs, err := c.homeUp(in.W)
	if err != nil {
		return err
	}
	cshard := c.ShardOf(in.CW)
	homeIn := in
	homeIn.W = c.LocalW(in.W)
	if cshard == hs.ID {
		homeIn.CW = c.LocalW(in.CW)
		if err := c.ranLocal(hs, hs.DB.Payment(homeIn)); err != nil {
			return err
		}
		c.xval.Payments.Add(1)
		return nil
	}

	cs := c.shards[cshard]
	if cs.Down() {
		hs.sheds.Add(1)
		return fmt.Errorf("customer shard %d: %w", cshard, ErrShardDown)
	}
	gid := c.nextGID(hs.ID)
	// The customer branch goes first: by-name payments only learn the
	// customer id from the remote shard's name index.
	pb, cid, selected, err := cs.DB.RemotePaymentBegin(gid,
		c.LocalW(in.CW), in.CD, in.ByName, in.C, in.NameOrd, in.AmountCents)
	if err != nil {
		return c.giveUp(hs, nil, cshard, err)
	}
	parts := []part{{shard: cshard, b: pb}}
	hb, err := hs.DB.PaymentHomeBegin(gid, homeIn, in.CW, in.CD, cid)
	if err != nil {
		return c.giveUp(hs, parts, hs.ID, err)
	}
	if err := c.decide(gid, hs, hb, parts); err != nil {
		return err
	}
	c.xval.Payments.Add(1)
	c.xval.RemotePayments.Add(1)
	c.xval.RemoteCustCalls.Add(int64(selected + 1))
	return nil
}

// ExecOrderStatus, ExecDelivery and ExecStockLevel run the single-warehouse
// procedures on the home shard of their GLOBAL warehouse id, under the
// same dead-shard contract as the other two: a typed refusal when the
// shard is down, and a crash mid-procedure turned into the same refusal.
func (c *Cluster) ExecOrderStatus(in db.OrderStatusInput) (db.OrderStatusResult, error) {
	hs, err := c.homeUp(in.W)
	if err != nil {
		return db.OrderStatusResult{}, err
	}
	in.W = c.LocalW(in.W)
	res, err := hs.DB.OrderStatus(in)
	return res, c.ranLocal(hs, err)
}

// ExecDelivery: see ExecOrderStatus.
func (c *Cluster) ExecDelivery(in db.DeliveryInput) (db.DeliveryResult, error) {
	hs, err := c.homeUp(in.W)
	if err != nil {
		return db.DeliveryResult{}, err
	}
	in.W = c.LocalW(in.W)
	res, err := hs.DB.Delivery(in)
	return res, c.ranLocal(hs, err)
}

// ExecStockLevel: see ExecOrderStatus.
func (c *Cluster) ExecStockLevel(in db.StockLevelInput) (int, error) {
	hs, err := c.homeUp(in.W)
	if err != nil {
		return 0, err
	}
	in.W = c.LocalW(in.W)
	res, err := hs.DB.StockLevel(in)
	return res, c.ranLocal(hs, err)
}
