package index

import (
	"encoding/binary"
	"flag"
	"path/filepath"
	"testing"

	"tpccmodel/internal/fuzzcorpus"
)

// regenFuzzCorpus rewrites the checked-in fuzz seed files:
// `go test ./internal/engine/index/ -run FuzzSeedCorpus -regen-fuzz-corpus`
// (or `make regen-fuzz-corpus`).
var regenFuzzCorpus = flag.Bool("regen-fuzz-corpus", false, "rewrite testdata/fuzz seed corpora")

// FuzzBTreeOps opcodes (op % 3): see fuzz_test.go.
const (
	opSet = iota
	opDelete
	opGet
)

// drainKeys ascending inserts grow the tree to three levels; drainOrder is
// the order of key ranges whose deletion empties the new root's last leaf
// after the root has collapsed onto an inner node (see the seed below and
// TestDrainToEmptyResetsRoot).
const drainKeys = 2200

var drainOrder = [][2]uint64{{1000, drainKeys - 20}, {0, 1000}, {drainKeys - 20, drainKeys}}

// buildTape assembles a FuzzBTreeOps operation tape: 1 opcode byte + 8
// little-endian key bytes per operation.
func buildTape(f func(emit func(op byte, key uint64))) []byte {
	var tape []byte
	f(func(op byte, key uint64) {
		var k [8]byte
		binary.LittleEndian.PutUint64(k[:], key)
		tape = append(tape, op)
		tape = append(tape, k[:]...)
	})
	return tape
}

// btreeOpsSeeds aims each seed at a distinct structural stress: splits
// from monotone insertion in both directions, merge pressure from a full
// drain, steady-state churn, overwrite of live keys, deletes against an
// empty tree, and a three-level tree drained to empty inner node last.
func btreeOpsSeeds() map[string][]byte {
	seeds := map[string]func(emit func(op byte, key uint64)){
		"ascending-fill-then-drain": func(emit func(byte, uint64)) {
			for k := uint64(0); k < 160; k++ {
				emit(opSet, k)
			}
			for k := uint64(0); k < 160; k++ {
				emit(opDelete, k)
			}
		},
		"descending-fill": func(emit func(byte, uint64)) {
			for k := uint64(160); k > 0; k-- {
				emit(opSet, k)
				emit(opGet, k)
			}
		},
		"interleaved-churn": func(emit func(byte, uint64)) {
			for i := uint64(0); i < 120; i++ {
				emit(opSet, i*7%256)
				emit(opDelete, i*3%256)
				emit(opGet, i*5%256)
			}
		},
		"overwrite-live-keys": func(emit func(byte, uint64)) {
			for round := 0; round < 8; round++ {
				for k := uint64(0); k < 16; k++ {
					emit(opSet, k)
					emit(opGet, k)
				}
			}
		},
		// Ascending fill to three levels (the root splits at 66 leaves of
		// 32 keys), then a drain that leaves the right inner node one leaf
		// while it is still a child, empties the left one so that the
		// right becomes the root, and finally empties that last leaf: the
		// root is then an inner node with no children, which every descent
		// indexed out of range before unlink learned to reset it.
		"drain-three-levels-inner-last": func(emit func(byte, uint64)) {
			for k := uint64(0); k < drainKeys; k++ {
				emit(opSet, k)
			}
			for _, r := range drainOrder {
				for k := r[0]; k < r[1]; k++ {
					emit(opDelete, k)
				}
			}
			emit(opGet, 7)
			emit(opSet, 7)
			emit(opGet, 7)
		},
		"delete-missing": func(emit func(byte, uint64)) {
			for k := uint64(0); k < 64; k++ {
				emit(opDelete, k*11%512)
			}
		},
	}
	out := make(map[string][]byte, len(seeds))
	for name, build := range seeds {
		out[name] = fuzzcorpus.Marshal(buildTape(build))
	}
	return out
}

// TestFuzzSeedCorpus keeps the checked-in seeds under testdata/fuzz/ in
// sync with their generators. The seeds double as ordinary corpus cases:
// plain `go test` runs every file through FuzzBTreeOps.
func TestFuzzSeedCorpus(t *testing.T) {
	fuzzcorpus.WriteOrCompare(t, filepath.Join("testdata", "fuzz", "FuzzBTreeOps"),
		btreeOpsSeeds(), *regenFuzzCorpus)
}
