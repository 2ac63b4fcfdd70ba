package index

// Composite-key packing for TPC-C. All benchmark keys fit comfortably in
// 64 bits; packing keeps the B+tree monomorphic and fast while preserving
// the lexicographic order of the component tuple, so range scans over a
// prefix (e.g. all orders of one district) are contiguous key ranges.
//
// Field widths: warehouse 16 bits (db.Config admits 65 536 warehouses),
// district 8 bits, item 24 bits, customer and name 16 bits — 12 in the
// order-by-customer key, which holds 4 096 of a district's 3 000 customers.
// An order id gets 40 bits in KeyWDO, bounding orders per district at
// ~10^12, far beyond the 180-day benchmark run; 32 in KeyWDOL and 28 in
// KeyWDCO.

// KeyWD packs (warehouse, district).
func KeyWD(w, d int64) uint64 {
	return uint64(w)<<8 | uint64(d)
}

// KeyWDC packs (warehouse, district, customer).
func KeyWDC(w, d, c int64) uint64 {
	return uint64(w)<<24 | uint64(d)<<16 | uint64(c)
}

// KeyWI packs (warehouse, item) for the stock relation.
func KeyWI(w, i int64) uint64 {
	return uint64(w)<<24 | uint64(i)
}

// KeyWDO packs (warehouse, district, order) so that orders of one district
// are contiguous and ascending in order id: 16+8+40 bits.
func KeyWDO(w, d, o int64) uint64 {
	return uint64(w)<<48 | uint64(d)<<40 | uint64(o)
}

// RangeWDO returns the inclusive key range covering every order id of one
// district.
func RangeWDO(w, d int64) (lo, hi uint64) {
	lo = KeyWDO(w, d, 0)
	hi = lo | (1<<40 - 1)
	return lo, hi
}

// KeyWDOL packs (warehouse, district, order, line) for order lines:
// 16+8+32+8 bits (order ids per district bounded at ~4.3e9 here).
func KeyWDOL(w, d, o, l int64) uint64 {
	return uint64(w)<<48 | uint64(d)<<40 | uint64(o)<<8 | uint64(l)
}

// RangeWDOLOrder returns the key range covering all lines of one order.
func RangeWDOLOrder(w, d, o int64) (lo, hi uint64) {
	lo = KeyWDOL(w, d, o, 0)
	hi = lo | 0xff
	return lo, hi
}

// KeyWDNC packs (warehouse, district, last-name ordinal, customer) for the
// customer-by-name secondary index: 16+8+16+16 bits. Scanning the
// (w, d, name) prefix yields the customers sharing the name sorted by
// customer id (the benchmark sorts by first name; with generated names the
// id order is an equivalent deterministic tiebreak).
func KeyWDNC(w, d, name, c int64) uint64 {
	return uint64(w)<<40 | uint64(d)<<32 | uint64(name)<<16 | uint64(c)
}

// RangeWDNC returns the key range covering one (warehouse, district, name).
func RangeWDNC(w, d, name int64) (lo, hi uint64) {
	lo = KeyWDNC(w, d, name, 0)
	hi = lo | 0xffff
	return lo, hi
}

// KeyWDCO packs (warehouse, district, customer, order) for the
// order-by-customer secondary index: 16+8+12+28 bits.
func KeyWDCO(w, d, c, o int64) uint64 {
	return uint64(w)<<48 | uint64(d)<<40 | uint64(c)<<28 | uint64(o)
}

// RangeWDCO returns the key range covering one customer's orders.
func RangeWDCO(w, d, c int64) (lo, hi uint64) {
	lo = KeyWDCO(w, d, c, 0)
	hi = lo | (1<<28 - 1)
	return lo, hi
}
