package mvcc

import (
	"flag"
	"path/filepath"
	"testing"

	"tpccmodel/internal/fuzzcorpus"
)

// regenFuzzCorpus rewrites the checked-in fuzz seed files:
// `go test ./internal/engine/mvcc/ -run FuzzSeedCorpus -regen-fuzz-corpus`
// (or `make regen-fuzz-corpus`).
var regenFuzzCorpus = flag.Bool("regen-fuzz-corpus", false, "rewrite testdata/fuzz seed corpora")

// buildVisTape assembles a FuzzVisibility operation tape: 4 bytes per op
// (opcode, slot, key, value).
func buildVisTape(f func(emit func(op, slot, key, val byte))) []byte {
	var tape []byte
	f(func(op, slot, key, val byte) {
		tape = append(tape, op, slot, key, val)
	})
	return tape
}

// visibilitySeeds aims each seed at a distinct schedule shape: the plain
// committed-history walk, first-committer-wins losses, abort-undo over
// inserts and deletes, a long reader pinning the watermark across many
// commits, and interleaved read-your-own-writes churn.
func visibilitySeeds() map[string][]byte {
	seeds := map[string]func(emit func(op, slot, key, val byte)){
		"sequential-history": func(emit func(op, slot, key, val byte)) {
			for i := byte(0); i < 16; i++ {
				emit(fopBegin, 0, 0, 0)
				emit(fopWrite, 0, i%fuzzKeys, i)
				emit(fopCommit, 0, 0, 0)
				emit(fopBegin, 1, 0, 0)
				emit(fopRead, 1, i%fuzzKeys, 0)
				emit(fopCommit, 1, 0, 0)
			}
		},
		"first-committer-wins": func(emit func(op, slot, key, val byte)) {
			for i := byte(0); i < 8; i++ {
				emit(fopBegin, 0, 0, 0)
				emit(fopBegin, 1, 0, 0)
				emit(fopWrite, 0, 1, i)
				emit(fopCommit, 0, 0, 0)
				emit(fopWrite, 1, 1, 200+i) // conflicts, aborts slot 1
				emit(fopRead, 1, 1, 0)      // no-op: slot 1 is gone
			}
		},
		"insert-delete-abort": func(emit func(op, slot, key, val byte)) {
			for i := byte(0); i < 8; i++ {
				emit(fopBegin, 0, 0, 0)
				emit(fopWrite, 0, 2, i)
				emit(fopDelete, 0, 3, 0)
				emit(fopAbort, 0, 0, 0)
				emit(fopBegin, 1, 0, 0)
				emit(fopRead, 1, 2, 0)
				emit(fopDelete, 1, 2, 0)
				emit(fopCommit, 1, 0, 0)
			}
		},
		"long-reader-watermark": func(emit func(op, slot, key, val byte)) {
			emit(fopBegin, 3, 0, 0) // pins the watermark
			for i := byte(0); i < 24; i++ {
				emit(fopBegin, 0, 0, 0)
				emit(fopWrite, 0, i%fuzzKeys, i)
				emit(fopCommit, 0, 0, 0)
				emit(fopRead, 3, i%fuzzKeys, 0)
			}
			emit(fopCommit, 3, 0, 0)
			emit(fopBegin, 0, 0, 0) // prunes the backlog
			emit(fopCommit, 0, 0, 0)
		},
		// A long snapshot reading every prefix length of rows rewritten
		// after it began: each read resolves to an older version and must
		// copy exactly the prefix asked for.
		"long-reader-prefixes": func(emit func(op, slot, key, val byte)) {
			emit(fopBegin, 0, 0, 0)
			for k := byte(0); k < fuzzKeys; k++ {
				emit(fopWrite, 0, k, 10+k)
			}
			emit(fopCommit, 0, 0, 0)
			emit(fopBegin, 3, 0, 0)
			for i := byte(0); i < 8; i++ {
				emit(fopBegin, 0, 0, 0)
				emit(fopWrite, 0, i%fuzzKeys, 100+i)
				emit(fopCommit, 0, 0, 0)
				emit(fopRead, 3, i%fuzzKeys, i) // prefix fuzzImgLen - i%fuzzImgLen
				emit(fopRead, 0, i%fuzzKeys, i) // no-op: slot 0 has ended
			}
			emit(fopCommit, 3, 0, 0)
		},
		"read-your-own-writes": func(emit func(op, slot, key, val byte)) {
			for i := byte(0); i < 8; i++ {
				emit(fopBegin, 0, 0, 0)
				emit(fopWrite, 0, 0, i)
				emit(fopRead, 0, 0, 0)
				emit(fopDelete, 0, 0, 0)
				emit(fopRead, 0, 0, 0)
				emit(fopWrite, 0, 0, 100+i)
				emit(fopRead, 0, 0, 0)
				emit(fopCommit, 0, 0, 0)
			}
		},
		// Crossing guard reads then disjoint writes: under the harness's
		// ssi pass this is the write-skew shape — slot 1's second write
		// must draw the dangerous-structure abort and the harness must
		// restore its images. (The si pass commits both.)
		"ssi-write-skew": func(emit func(op, slot, key, val byte)) {
			for i := byte(0); i < 8; i++ {
				emit(fopBegin, 0, 0, 0)
				emit(fopBegin, 1, 0, 0)
				emit(fopRead, 0, 1, 0)
				emit(fopRead, 1, 0, 0)
				emit(fopWrite, 0, 0, i)
				emit(fopWrite, 1, 1, 100+i)
				emit(fopCommit, 0, 0, 0)
				emit(fopCommit, 1, 0, 0)
			}
		},
		// Reads of keys that do not exist yet, then inserts over the
		// marks those reads left: exercises the absent-read SIREAD path
		// and marks that outlive the chains of the keys they mark.
		"ssi-absent-read-marks": func(emit func(op, slot, key, val byte)) {
			for i := byte(0); i < 8; i++ {
				k := 4 + i%2 // keys the other seeds leave untouched
				emit(fopBegin, 2, 0, 0)
				emit(fopRead, 2, k, 0)
				emit(fopBegin, 0, 0, 0)
				emit(fopWrite, 0, k, i) // insert over slot 2's mark
				emit(fopCommit, 0, 0, 0)
				emit(fopRead, 2, k, 0)
				emit(fopCommit, 2, 0, 0)
				emit(fopBegin, 1, 0, 0)
				emit(fopDelete, 1, k, 0)
				emit(fopCommit, 1, 0, 0)
			}
		},
		// A committed reader whose marks must outlive it: the long
		// overlapping snapshot (slot 3) keeps the watermark below the
		// readers' commits, so their recs sit in the reap queue while
		// later writers scan their still-live marks.
		"ssi-mark-survives-commit": func(emit func(op, slot, key, val byte)) {
			emit(fopBegin, 3, 0, 0) // pins the watermark
			for i := byte(0); i < 12; i++ {
				emit(fopBegin, 0, 0, 0)
				emit(fopRead, 0, i%fuzzKeys, 0)
				emit(fopCommit, 0, 0, 0) // read-only commit; marks live on
				emit(fopBegin, 1, 0, 0)
				emit(fopWrite, 1, i%fuzzKeys, i)
				emit(fopCommit, 1, 0, 0)
			}
			emit(fopRead, 3, 0, 0)
			emit(fopCommit, 3, 0, 0)
			emit(fopBegin, 0, 0, 0) // reap + prune the backlog
			emit(fopCommit, 0, 0, 0)
		},
	}
	out := make(map[string][]byte, len(seeds))
	for name, build := range seeds {
		out[name] = fuzzcorpus.Marshal(buildVisTape(build))
	}
	return out
}

// TestFuzzSeedCorpus keeps the checked-in seeds under testdata/fuzz/ in
// sync with their generators. The seeds double as ordinary corpus cases:
// plain `go test` runs every file through FuzzVisibility.
func TestFuzzSeedCorpus(t *testing.T) {
	fuzzcorpus.WriteOrCompare(t, filepath.Join("testdata", "fuzz", "FuzzVisibility"),
		visibilitySeeds(), *regenFuzzCorpus)
}
