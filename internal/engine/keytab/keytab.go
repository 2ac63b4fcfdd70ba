// Package keytab is the engine's table from a row, named by (table, row),
// to a pointer: the lock manager keeps one per stripe (row -> lock state)
// and the version store one per shard (row -> version chain). Both sit on
// the per-row path, so the table is built for that path and nothing else:
//
//   - open addressing with linear probing over one slice of slots, each
//     slot holding the key inline beside its value, so a probe that hits
//     touches one cache line and a lookup hashes no struct;
//   - the home slot is the top bits of Hash, a Fibonacci multiplicative
//     hash whose high bits carry the mixing. Both callers shard by the
//     same hash, from bits the home slot never uses (the lock manager's
//     stripeOf and the version store's shardOf read bits 32 and up, and a
//     table reaches those only past 2^26 slots): a key is hashed once, and
//     the keys of one shard still spread over the whole table;
//   - the table is kept at most half full and doubles when an insert would
//     pass that, so an expected probe is short whatever the key pattern;
//   - deletion shifts the entries behind the hole back toward their home
//     slots (backward-shift deletion), so there are no tombstones and a
//     table that has emptied is as fast as a new one.
//
// The zero Table is empty and ready to use; its first insert allocates.
// Steady state allocates nothing: the table never shrinks, so once it has
// grown to a workload's peak it only reuses its slots. A Table is not safe
// for concurrent use; its owners guard it with their shard mutex.
package keytab

import "math/bits"

// minSlots is the slot count of a table's first allocation: room for
// eight entries before it first doubles.
const minSlots = 16

// Hash is the Fibonacci multiplicative hash of (table, row). Row keys are
// near-sequential per table, so the multiply spreads adjacent rows apart;
// the high bits of the product carry the mixing. A product's bit k depends
// only on bits 0..k of what is multiplied, so the row's high half is first
// folded onto its low half: the shard bits, 32 and up, then see the whole
// row, such as the district at bit 40 of an order key, and the orders of
// ten districts with one order id do not all land in one shard.
func Hash(table uint32, row uint64) uint64 {
	return (row ^ row>>32 ^ uint64(table)<<32) * 0x9e3779b97f4a7c15
}

// slot is one table entry; v == nil marks an empty slot.
type slot[V any] struct {
	row   uint64
	table uint32
	v     *V
}

// Table maps (table, row) to a non-nil *V.
type Table[V any] struct {
	slots []slot[V]
	n     int
	// shift turns a hash into a home slot: Hash >> shift is the top
	// log2(len(slots)) bits.
	shift uint
}

// Len returns the number of entries.
func (t *Table[V]) Len() int { return t.n }

// home is the home slot of (table, row).
func (t *Table[V]) home(table uint32, row uint64) uint64 {
	return Hash(table, row) >> t.shift
}

// find returns the slot holding (table, row), or the empty slot that ends
// its probe chain. The table must have slots.
func (t *Table[V]) find(table uint32, row uint64) (uint64, bool) {
	mask := uint64(len(t.slots) - 1)
	for i := t.home(table, row); ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.v == nil {
			return i, false
		}
		if s.row == row && s.table == table {
			return i, true
		}
	}
}

// Get returns the value of (table, row), or nil.
func (t *Table[V]) Get(table uint32, row uint64) *V {
	if t.n == 0 {
		return nil
	}
	if i, ok := t.find(table, row); ok {
		return t.slots[i].v
	}
	return nil
}

// Put sets the value of (table, row) to v, which must not be nil,
// replacing any value it had.
func (t *Table[V]) Put(table uint32, row uint64, v *V) {
	if v == nil {
		panic("keytab: Put of a nil value")
	}
	if len(t.slots) > 0 {
		i, ok := t.find(table, row)
		if ok {
			t.slots[i].v = v
			return
		}
		if 2*(t.n+1) <= len(t.slots) {
			t.slots[i] = slot[V]{row: row, table: table, v: v}
			t.n++
			return
		}
	}
	t.grow()
	i, _ := t.find(table, row)
	t.slots[i] = slot[V]{row: row, table: table, v: v}
	t.n++
}

// Delete removes (table, row) and returns the value it had, or nil. The
// entries behind the hole in its probe chain move back, each as far
// toward its home slot as the hole allows, so every remaining entry stays
// reachable from its home slot without tombstones.
func (t *Table[V]) Delete(table uint32, row uint64) *V {
	if t.n == 0 {
		return nil
	}
	hole, ok := t.find(table, row)
	if !ok {
		return nil
	}
	v := t.slots[hole].v
	t.n--
	mask := uint64(len(t.slots) - 1)
	for j := (hole + 1) & mask; t.slots[j].v != nil; j = (j + 1) & mask {
		s := &t.slots[j]
		// s may fill the hole when the hole lies on its probe path, that
		// is when s is at least as far from its home as from the hole.
		if (j-t.home(s.table, s.row))&mask >= (j-hole)&mask {
			t.slots[hole] = *s
			hole = j
		}
	}
	t.slots[hole] = slot[V]{}
	return v
}

// Clear removes every entry, calling f with each value first, in slot
// order. The slots are kept for reuse.
func (t *Table[V]) Clear(f func(*V)) {
	if t.n == 0 {
		return
	}
	for i := range t.slots {
		if v := t.slots[i].v; v != nil {
			f(v)
			t.slots[i] = slot[V]{}
		}
	}
	t.n = 0
}

// grow doubles the slot count (or makes the first minSlots) and re-enters
// every entry. The caller adds the entry that made it grow.
func (t *Table[V]) grow() {
	old := t.slots
	size := 2 * len(old)
	if size < minSlots {
		size = minSlots
	}
	t.slots = make([]slot[V], size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := range old {
		if s := &old[i]; s.v != nil {
			j, _ := t.find(s.table, s.row)
			t.slots[j] = *s
		}
	}
}
