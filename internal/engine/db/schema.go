// Package db assembles the engine substrates into a running TPC-C
// database: the nine relations as slotted heap files with B+tree indexes,
// a spec-style loader, and stored-procedure implementations of all five
// transactions under strict 2PL with write-ahead logging.
//
// Record layouts are fixed-length and sized to the paper's Table 1 tuple
// lengths exactly (89/95/655/306/82/24/8/54/46 bytes), so the engine's
// tuples-per-page match the model's and measured buffer behaviour is
// comparable with the trace-driven simulation.
package db

import (
	"encoding/binary"
	"fmt"

	"tpccmodel/internal/core"
	"tpccmodel/internal/tpcc"
)

// cursor is a tiny sequential binary codec over a fixed-length buffer.
type cursor struct {
	buf []byte
	off int
}

func (c *cursor) u8() uint8   { v := c.buf[c.off]; c.off++; return v }
func (c *cursor) pu8(v uint8) { c.buf[c.off] = v; c.off++ }
func (c *cursor) u16() uint16 { v := binary.LittleEndian.Uint16(c.buf[c.off:]); c.off += 2; return v }
func (c *cursor) pu16(v uint16) {
	binary.LittleEndian.PutUint16(c.buf[c.off:], v)
	c.off += 2
}
func (c *cursor) u32() uint32 { v := binary.LittleEndian.Uint32(c.buf[c.off:]); c.off += 4; return v }
func (c *cursor) pu32(v uint32) {
	binary.LittleEndian.PutUint32(c.buf[c.off:], v)
	c.off += 4
}
func (c *cursor) u64() uint64 { v := binary.LittleEndian.Uint64(c.buf[c.off:]); c.off += 8; return v }
func (c *cursor) pu64(v uint64) {
	binary.LittleEndian.PutUint64(c.buf[c.off:], v)
	c.off += 8
}
func (c *cursor) bytes(n int) []byte { v := c.buf[c.off : c.off+n]; c.off += n; return v }
func (c *cursor) pbytes(v []byte)    { copy(c.buf[c.off:c.off+len(v)], v); c.off += len(v) }

// Projections: a read that needs only a record's leading fields reads the
// record's first ...End bytes — storage.HeapFile.Read and mvcc.Store.Resolve
// copy a prefix as long as the buffer they are given — and decodes them with
// the record's matching unmarshal method instead of Unmarshal; given fewer
// bytes than its end, a decoder panics rather than decode stale ones. Each
// end, defined next to its record's Marshal, is the Marshal offset just past
// the projection's last field (TestProjectionsPinLayout). Reads for update
// keep whole images: the log and the undo list need them.

// mustLen panics unless a record layout ends at its Table 1 length.
func mustLen(rel core.Relation, off int) {
	if off != tpcc.TupleLen[rel] {
		panic(fmt.Sprintf("db: %s record layout is %d bytes, Table 1 says %d",
			rel, off, tpcc.TupleLen[rel]))
	}
}

// WarehouseRec is the 89-byte warehouse tuple.
type WarehouseRec struct {
	ID       uint32
	TaxBP    uint32 // basis points
	YTDCents uint64
	Text     [73]byte // name + address block
}

// Marshal serializes the record.
func (r *WarehouseRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.ID)
	c.pu32(r.TaxBP)
	c.pu64(r.YTDCents)
	c.pbytes(r.Text[:])
	mustLen(core.Warehouse, c.off)
}

// Unmarshal deserializes the record.
func (r *WarehouseRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.ID = c.u32()
	r.TaxBP = c.u32()
	r.YTDCents = c.u64()
	copy(r.Text[:], c.bytes(73))
	mustLen(core.Warehouse, c.off)
}

// whTaxEnd ends W_ID and W_TAX: New-Order's warehouse read. Clause
// 2.4.2.2 selects W_TAX alone, so nothing it names lies past the prefix.
const whTaxEnd = 8

// DistrictRec is the 95-byte district tuple. NextOID is the order-id
// counter the New-Order transaction increments and the Stock-Level
// transaction reads — exactly the d_next_o_id of the benchmark.
type DistrictRec struct {
	ID       uint32
	WID      uint32
	TaxBP    uint32
	YTDCents uint64
	NextOID  uint32
	Text     [71]byte
}

// Marshal serializes the record.
func (r *DistrictRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.ID)
	c.pu32(r.WID)
	c.pu32(r.TaxBP)
	c.pu64(r.YTDCents)
	c.pu32(r.NextOID)
	c.pbytes(r.Text[:])
	mustLen(core.District, c.off)
}

// Unmarshal deserializes the record.
func (r *DistrictRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.ID = c.u32()
	r.WID = c.u32()
	r.TaxBP = c.u32()
	r.YTDCents = c.u64()
	r.NextOID = c.u32()
	copy(r.Text[:], c.bytes(71))
	mustLen(core.District, c.off)
}

// CustomerRec is the 655-byte customer tuple.
type CustomerRec struct {
	ID            uint32
	DID           uint32
	WID           uint32
	NameOrd       uint32 // last-name ordinal (0..999), the by-name key
	BalanceCents  int64
	YTDPayCents   uint64
	PaymentCount  uint32
	DeliveryCount uint32
	CreditLimit   uint64
	DiscountBP    uint32
	Data          [603]byte // name, address, credit data
}

// Marshal serializes the record.
func (r *CustomerRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.ID)
	c.pu32(r.DID)
	c.pu32(r.WID)
	c.pu32(r.NameOrd)
	c.pu64(uint64(r.BalanceCents))
	c.pu64(r.YTDPayCents)
	c.pu32(r.PaymentCount)
	c.pu32(r.DeliveryCount)
	c.pu64(r.CreditLimit)
	c.pu32(r.DiscountBP)
	c.pbytes(r.Data[:])
	mustLen(core.Customer, c.off)
}

// Unmarshal deserializes the record.
func (r *CustomerRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.ID = c.u32()
	r.DID = c.u32()
	r.WID = c.u32()
	r.NameOrd = c.u32()
	r.BalanceCents = int64(c.u64())
	r.YTDPayCents = c.u64()
	r.PaymentCount = c.u32()
	r.DeliveryCount = c.u32()
	r.CreditLimit = c.u64()
	r.DiscountBP = c.u32()
	copy(r.Data[:], c.bytes(603))
	mustLen(core.Customer, c.off)
}

// Customer projections: C_LAST opens Data, and custHeadEnd ends the fixed
// fields and C_LAST — what Order-Status reports of its customer, all the
// by-name scan needs, and New-Order's customer read (C_DISCOUNT and C_LAST;
// the C_CREDIT that clause 2.4.2.2 also selects is kept in Data past C_LAST,
// outside the prefix, and New-Order reports nothing of it).
const (
	custLastLen = 16
	custHeadEnd = 52 + custLastLen
)

// unmarshalHead decodes the custHeadEnd projection: the fixed fields and
// the first custLastLen bytes of Data. The rest of r is left as it was.
func (r *CustomerRec) unmarshalHead(buf []byte) {
	c := cursor{buf: buf}
	r.ID = c.u32()
	r.DID = c.u32()
	r.WID = c.u32()
	r.NameOrd = c.u32()
	r.BalanceCents = int64(c.u64())
	r.YTDPayCents = c.u64()
	r.PaymentCount = c.u32()
	r.DeliveryCount = c.u32()
	r.CreditLimit = c.u64()
	r.DiscountBP = c.u32()
	copy(r.Data[:custLastLen], c.bytes(custLastLen))
}

// StockRec is the 306-byte stock tuple.
type StockRec struct {
	IID        uint32
	WID        uint32
	Quantity   int32
	YTD        uint64
	OrderCount uint32
	RemoteCnt  uint32
	Dists      [278]byte // per-district info strings
}

// Marshal serializes the record.
func (r *StockRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.IID)
	c.pu32(r.WID)
	c.pu32(uint32(r.Quantity))
	c.pu64(r.YTD)
	c.pu32(r.OrderCount)
	c.pu32(r.RemoteCnt)
	c.pbytes(r.Dists[:])
	mustLen(core.Stock, c.off)
}

// Unmarshal deserializes the record.
func (r *StockRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.IID = c.u32()
	r.WID = c.u32()
	r.Quantity = int32(c.u32())
	r.YTD = c.u64()
	r.OrderCount = c.u32()
	r.RemoteCnt = c.u32()
	copy(r.Dists[:], c.bytes(278))
	mustLen(core.Stock, c.off)
}

// stockQtyEnd ends S_I_ID, S_W_ID and S_QUANTITY: Stock-Level's probe.
const stockQtyEnd = 12

// unmarshalQty decodes the stockQtyEnd projection: IID, WID and Quantity.
// The rest of r is left as it was.
func (r *StockRec) unmarshalQty(buf []byte) {
	c := cursor{buf: buf}
	r.IID = c.u32()
	r.WID = c.u32()
	r.Quantity = int32(c.u32())
}

// ItemRec is the 82-byte item tuple.
type ItemRec struct {
	IID        uint32
	ImageID    uint32
	PriceCents uint32
	Name       [70]byte
}

// Marshal serializes the record.
func (r *ItemRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.IID)
	c.pu32(r.ImageID)
	c.pu32(r.PriceCents)
	c.pbytes(r.Name[:])
	mustLen(core.Item, c.off)
}

// Unmarshal deserializes the record.
func (r *ItemRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.IID = c.u32()
	r.ImageID = c.u32()
	r.PriceCents = c.u32()
	copy(r.Name[:], c.bytes(70))
	mustLen(core.Item, c.off)
}

// itemPriceEnd ends I_ID, I_IM_ID and I_PRICE: New-Order's item read. The
// I_NAME and I_DATA that clause 2.4.2.2 also selects are kept in Name, past
// the prefix; New-Order prices its lines with I_PRICE alone.
const itemPriceEnd = 12

// unmarshalPrice decodes the itemPriceEnd projection: IID, ImageID and
// PriceCents. The rest of r is left as it was.
func (r *ItemRec) unmarshalPrice(buf []byte) {
	c := cursor{buf: buf}
	r.IID = c.u32()
	r.ImageID = c.u32()
	r.PriceCents = c.u32()
}

// OrderRec is the 24-byte order tuple.
type OrderRec struct {
	OID       uint32
	CID       uint32
	WID       uint16
	DID       uint8
	OLCount   uint8
	CarrierID uint8
	AllLocal  uint8
	_pad      [2]byte
	EntryTick uint64 // load/transaction sequence stamp
}

// Marshal serializes the record.
func (r *OrderRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.OID)
	c.pu32(r.CID)
	c.pu16(r.WID)
	c.pu8(r.DID)
	c.pu8(r.OLCount)
	c.pu8(r.CarrierID)
	c.pu8(r.AllLocal)
	c.pbytes(r._pad[:])
	c.pu64(r.EntryTick)
	mustLen(core.Order, c.off)
}

// Unmarshal deserializes the record.
func (r *OrderRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.OID = c.u32()
	r.CID = c.u32()
	r.WID = c.u16()
	r.DID = c.u8()
	r.OLCount = c.u8()
	r.CarrierID = c.u8()
	r.AllLocal = c.u8()
	copy(r._pad[:], c.bytes(2))
	r.EntryTick = c.u64()
	mustLen(core.Order, c.off)
}

// NewOrderRec is the 8-byte new-order tuple.
type NewOrderRec struct {
	OID uint32
	WID uint16
	DID uint8
	_   uint8
}

// Marshal serializes the record.
func (r *NewOrderRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.OID)
	c.pu16(r.WID)
	c.pu8(r.DID)
	c.pu8(0)
	mustLen(core.NewOrder, c.off)
}

// Unmarshal deserializes the record.
func (r *NewOrderRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.OID = c.u32()
	r.WID = c.u16()
	r.DID = c.u8()
	c.u8()
	mustLen(core.NewOrder, c.off)
}

// OrderLineRec is the 54-byte order-line tuple.
type OrderLineRec struct {
	OID          uint32
	IID          uint32
	SupplyWID    uint16
	WID          uint16
	DID          uint8
	Number       uint8
	Quantity     uint8
	_pad         uint8
	AmountCents  uint32
	DeliveryTick uint64
	DistInfo     [26]byte
}

// Marshal serializes the record.
func (r *OrderLineRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.OID)
	c.pu32(r.IID)
	c.pu16(r.SupplyWID)
	c.pu16(r.WID)
	c.pu8(r.DID)
	c.pu8(r.Number)
	c.pu8(r.Quantity)
	c.pu8(0)
	c.pu32(r.AmountCents)
	c.pu64(r.DeliveryTick)
	c.pbytes(r.DistInfo[:])
	mustLen(core.OrderLine, c.off)
}

// Unmarshal deserializes the record.
func (r *OrderLineRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.OID = c.u32()
	r.IID = c.u32()
	r.SupplyWID = c.u16()
	r.WID = c.u16()
	r.DID = c.u8()
	r.Number = c.u8()
	r.Quantity = c.u8()
	c.u8()
	r.AmountCents = c.u32()
	r.DeliveryTick = c.u64()
	copy(r.DistInfo[:], c.bytes(26))
	mustLen(core.OrderLine, c.off)
}

// Order-line projections: olItemEnd ends OL_O_ID and OL_I_ID, all
// Stock-Level's scan needs; olStatusEnd ends the columns Order-Status
// reports, through OL_DELIVERY_D (OL_DIST_INFO is left out).
const (
	olItemEnd   = 8
	olStatusEnd = 28
)

// unmarshalItem decodes the olItemEnd projection: OID and IID. The rest of
// r is left as it was.
func (r *OrderLineRec) unmarshalItem(buf []byte) {
	c := cursor{buf: buf}
	r.OID = c.u32()
	r.IID = c.u32()
}

// unmarshalStatus decodes the olStatusEnd projection: every field but
// DistInfo, which is left as it was.
func (r *OrderLineRec) unmarshalStatus(buf []byte) {
	c := cursor{buf: buf}
	r.OID = c.u32()
	r.IID = c.u32()
	r.SupplyWID = c.u16()
	r.WID = c.u16()
	r.DID = c.u8()
	r.Number = c.u8()
	r.Quantity = c.u8()
	c.u8()
	r.AmountCents = c.u32()
	r.DeliveryTick = c.u64()
}

// HistoryRec is the 46-byte history tuple.
type HistoryRec struct {
	CID         uint32
	CWID        uint16
	CDID        uint8
	DID         uint8
	WID         uint16
	AmountCents uint32
	Tick        uint64
	Data        [24]byte
}

// Marshal serializes the record.
func (r *HistoryRec) Marshal(buf []byte) {
	c := cursor{buf: buf}
	c.pu32(r.CID)
	c.pu16(r.CWID)
	c.pu8(r.CDID)
	c.pu8(r.DID)
	c.pu16(r.WID)
	c.pu32(r.AmountCents)
	c.pu64(r.Tick)
	c.pbytes(r.Data[:])
	mustLen(core.History, c.off)
}

// Unmarshal deserializes the record.
func (r *HistoryRec) Unmarshal(buf []byte) {
	c := cursor{buf: buf}
	r.CID = c.u32()
	r.CWID = c.u16()
	r.CDID = c.u8()
	r.DID = c.u8()
	r.WID = c.u16()
	r.AmountCents = c.u32()
	r.Tick = c.u64()
	copy(r.Data[:], c.bytes(24))
	mustLen(core.History, c.off)
}

// lastNameSyllables are the TPC-C C_LAST syllables (clause 4.3.2.3).
var lastNameSyllables = [10]string{
	"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
}

// LastName returns the benchmark customer last name for a name ordinal in
// [0, 999]: the concatenation of the syllables selected by its digits.
func LastName(ord int) string {
	if ord < 0 || ord > 999 {
		panic("db: name ordinal out of [0, 999]")
	}
	return lastNameSyllables[ord/100] + lastNameSyllables[ord/10%10] + lastNameSyllables[ord%10]
}
