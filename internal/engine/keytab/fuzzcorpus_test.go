package keytab

import (
	"flag"
	"path/filepath"
	"testing"

	"tpccmodel/internal/fuzzcorpus"
)

// regenFuzzCorpus rewrites the checked-in fuzz seed files:
// `go test ./internal/engine/keytab/ -run FuzzSeedCorpus -regen-fuzz-corpus`
// (or `make regen-fuzz-corpus`).
var regenFuzzCorpus = flag.Bool("regen-fuzz-corpus", false, "rewrite testdata/fuzz seed corpora")

// tkeyBytes is the inverse of tapeKey for the keys the seeds use: table
// below 4, row below 2^16 (plus bit 32 or 33).
func tkeyBytes(table uint32, row uint64) (byte, byte, byte) {
	return byte(table) | byte(row>>32&3)<<2, byte(row), byte(row >> 8)
}

// buildTableTape assembles a FuzzTable tape.
func buildTableTape(f func(emit func(op byte, table uint32, row uint64))) []byte {
	var tape []byte
	f(func(op byte, table uint32, row uint64) {
		b, lo, hi := tkeyBytes(table, row)
		tape = append(tape, op, b, lo, hi)
	})
	return tape
}

// sized returns an empty table whose home slots are those of a table of
// size slots, a power of two.
func sized(size int) *Table[int] {
	tb := &Table[int]{shift: 64}
	for s := size; s > 1; s >>= 1 {
		tb.shift--
	}
	return tb
}

// homedAt returns the first n rows of table whose home slot in a table of
// size slots is want.
func homedAt(table uint32, want uint64, size, n int) []uint64 {
	tb := sized(size)
	var rows []uint64
	for r := uint64(0); len(rows) < n; r++ {
		if tb.home(table, r) == want {
			rows = append(rows, r)
		}
	}
	return rows
}

// sharedHome returns the first n rows below 2^16 whose home slot in a
// table of minSlots slots is the same in tables 0 and 2. (Below 2^32 a
// key's table adds a constant to its Hash; table 2's is about -1/180 of
// the range, so most rows share their home with table 0's, where table
// 1's, about one half, never does.)
func sharedHome(n int) []uint64 {
	tb := sized(minSlots)
	var rows []uint64
	for r := uint64(0); len(rows) < n && r < 1<<16; r++ {
		if tb.home(0, r) == tb.home(2, r) {
			rows = append(rows, r)
		}
	}
	return rows
}

// tableSeeds aims each seed at one layout case of the table: a probe
// chain that wraps past the last slot and then loses its first member, a
// growth with a long chain in place, emptying and refilling (by deletes
// and by Clear), and keys of two tables that share a home slot or a hash.
func tableSeeds() map[string][]byte {
	seeds := map[string]func(emit func(op byte, table uint32, row uint64)){
		// Three keys homed at the last of 16 slots fill slots 15, 0 and 1,
		// and a key homed at 0 lands at 2. Deleting the first must pull
		// both wrapped members back across the end, and the key homed at 0
		// back to slot 1.
		"wrap-lose-first": func(emit func(byte, uint32, uint64)) {
			last := homedAt(1, minSlots-1, minSlots, 3)
			first := homedAt(1, 0, minSlots, 1)
			for _, r := range append(last, first...) {
				emit(opPut, 1, r)
			}
			emit(opDelete, 1, last[0])
			for _, r := range append(last, first...) {
				emit(opGet, 1, r)
			}
			emit(opDelete, 1, first[0])
			emit(opGet, 1, last[1])
			emit(opGet, 1, last[2])
		},
		// Eight keys with one home slot make a chain of eight in the
		// first 16 slots; the ninth put grows the table with the chain in
		// place. Then every key is read and the chain is deleted from its
		// middle outwards.
		"grow-mid-chain": func(emit func(byte, uint32, uint64)) {
			rows := homedAt(2, 5, minSlots, 9)
			for _, r := range rows[:8] {
				emit(opPut, 2, r)
			}
			emit(opGet, 2, rows[3])
			emit(opPut, 2, rows[8])
			for _, r := range rows {
				emit(opGet, 2, r)
			}
			for _, i := range []int{4, 3, 5, 2, 6, 1, 7, 0, 8} {
				emit(opDelete, 2, rows[i])
				emit(opGet, 2, rows[(i+1)%len(rows)])
			}
		},
		// Fill past two growths, delete every key, refill with other
		// keys, then Clear and refill once more.
		"empty-refill": func(emit func(byte, uint32, uint64)) {
			for r := uint64(0); r < 40; r++ {
				emit(opPut, 0, r)
			}
			for r := uint64(0); r < 40; r++ {
				emit(opDelete, 0, r)
			}
			for r := uint64(100); r < 140; r++ {
				emit(opPut, 3, r)
				emit(opGet, 0, r-100)
			}
			emit(opClear, 0, 0)
			for r := uint64(0); r < 20; r++ {
				emit(opPut, 0, r)
				emit(opGet, 3, r+100)
			}
		},
		// Rows that have one home slot in tables 0 and 2: each pair shares
		// a chain with the same row, so only the table tells them apart.
		"same-row-other-table": func(emit func(byte, uint32, uint64)) {
			for _, r := range sharedHome(4) {
				emit(opPut, 0, r)
				emit(opGet, 2, r)
				emit(opPut, 2, r)
				emit(opGet, 0, r)
				emit(opDelete, 0, r)
				emit(opGet, 2, r)
			}
		},
		// (t, r) and (t^1, r^1<<32) have one Hash, so each pair shares a
		// home slot and a chain; only the fields tell them apart.
		"hash-twins": func(emit func(byte, uint32, uint64)) {
			for r := uint64(0); r < 6; r++ {
				emit(opPut, 0, r|1<<32)
				emit(opPut, 1, r)
				emit(opGet, 1, r|1<<32)
				emit(opGet, 0, r)
			}
			for r := uint64(0); r < 6; r++ {
				emit(opDelete, 1, r)
				emit(opGet, 0, r|1<<32)
				emit(opPut, 0, r|1<<32)
			}
		},
	}
	out := make(map[string][]byte, len(seeds))
	for name, build := range seeds {
		out[name] = fuzzcorpus.Marshal(buildTableTape(build))
	}
	return out
}

// TestFuzzSeedCorpus keeps the checked-in seeds under testdata/fuzz/ in
// sync with their generators. The seeds double as ordinary corpus cases:
// plain `go test` runs every file through FuzzTable.
func TestFuzzSeedCorpus(t *testing.T) {
	fuzzcorpus.WriteOrCompare(t, filepath.Join("testdata", "fuzz", "FuzzTable"),
		tableSeeds(), *regenFuzzCorpus)
}
