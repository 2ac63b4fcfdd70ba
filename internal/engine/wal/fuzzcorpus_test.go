package wal

import (
	"flag"
	"path/filepath"
	"testing"

	"tpccmodel/internal/fuzzcorpus"
)

// regenFuzzCorpus rewrites the checked-in fuzz seed files:
// `go test ./internal/engine/wal/ -run FuzzSeedCorpus -regen-fuzz-corpus`
// (or `make regen-fuzz-corpus`).
var regenFuzzCorpus = flag.Bool("regen-fuzz-corpus", false, "rewrite testdata/fuzz seed corpora")

// seedLog builds the log shape both WAL fuzz targets care about: a
// committed transaction (the forced prefix) followed by a volatile tail.
func seedLog(t testing.TB) *Log {
	t.Helper()
	l := New()
	for _, r := range []Record{
		{Txn: 1, Type: RecInsert, Table: 0, RID: 1, After: []byte{1}},
		{Txn: 1, Type: RecUpdate, Table: 0, RID: 1, Before: []byte{1}, After: []byte{2}},
		{Txn: 1, Type: RecCommit},
		{Txn: 2, Type: RecInsert, Table: 0, RID: 9, After: []byte{7}},
	} {
		if _, err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

// decodeRecordSeeds covers the decoder's interesting regions: a fully
// valid multi-record log, a cut mid-record, a payload bitflip the CRC must
// catch, and a mangled header.
func decodeRecordSeeds(t testing.TB) map[string][]byte {
	valid := flat(seedLog(t))
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	bitflip := append([]byte(nil), valid...)
	bitflip[len(bitflip)/3] ^= 0x40
	header := append([]byte(nil), valid...)
	header[0] ^= 0xFF
	return map[string][]byte{
		"valid-log":            fuzzcorpus.Marshal(valid),
		"truncated-mid-record": fuzzcorpus.Marshal(truncated),
		"bitflip-payload":      fuzzcorpus.Marshal(bitflip),
		"corrupt-header":       fuzzcorpus.Marshal(header),
	}
}

// logMutationSeeds pins the damage classes recovery distinguishes: flips
// inside the forced prefix, flips confined to the volatile tail, tail
// truncation, total loss, and combined cut+flip.
func logMutationSeeds() map[string][]byte {
	return map[string][]byte{
		"flip-forced-prefix": fuzzcorpus.Marshal(int(4), byte(0x10), uint16(0)),
		"flip-volatile-tail": fuzzcorpus.Marshal(int(-1), byte(0xFF), uint16(0)),
		"cut-tail":           fuzzcorpus.Marshal(int(0), byte(0), uint16(8)),
		"cut-everything":     fuzzcorpus.Marshal(int(0), byte(0), uint16(65535)),
		"flip-and-cut":       fuzzcorpus.Marshal(int(6), byte(0x80), uint16(12)),
	}
}

// twoPhaseSeeds pins the 2PC log shapes recovery distinguishes: an
// undecided prepare (in-doubt), durable commit and abort decisions, a
// zero gid, and a cut that removes the decision record.
func twoPhaseSeeds() map[string][]byte {
	return map[string][]byte{
		"undecided-in-doubt": fuzzcorpus.Marshal(uint64(2), uint64(7), false, false, uint16(0)),
		"decided-commit":     fuzzcorpus.Marshal(uint64(2), uint64(1)<<63, true, true, uint16(0)),
		"decided-abort":      fuzzcorpus.Marshal(uint64(9), uint64(11), true, false, uint16(0)),
		"gid-zero":           fuzzcorpus.Marshal(uint64(9), uint64(0), true, false, uint16(0)),
		"cut-decision":       fuzzcorpus.Marshal(uint64(2), uint64(7), true, true, uint16(20)),
	}
}

// TestFuzzSeedCorpus keeps the checked-in seeds under testdata/fuzz/ in
// sync with their generators. The seeds double as ordinary corpus cases:
// plain `go test` runs every file through its fuzz target.
func TestFuzzSeedCorpus(t *testing.T) {
	fuzzcorpus.WriteOrCompare(t, filepath.Join("testdata", "fuzz", "FuzzDecodeRecord"),
		decodeRecordSeeds(t), *regenFuzzCorpus)
	fuzzcorpus.WriteOrCompare(t, filepath.Join("testdata", "fuzz", "FuzzLogMutation"),
		logMutationSeeds(), *regenFuzzCorpus)
	fuzzcorpus.WriteOrCompare(t, filepath.Join("testdata", "fuzz", "Fuzz2PCLog"),
		twoPhaseSeeds(), *regenFuzzCorpus)
}
