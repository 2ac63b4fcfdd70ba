package fault_test

import (
	"testing"

	"tpccmodel/internal/engine/db"
	"tpccmodel/internal/engine/shard"
	"tpccmodel/internal/engine/wal"
)

// The crash campaign is shard.Torture; a single node is a one-shard
// cluster. These are its one-shard cells (the three-shard ones are
// shard's TestShardTortureReduced). This is an external test package
// because shard imports fault.

// commits are the two settings of the commit path: one force per
// committer, and forces shared by whoever pre-committed in time.
var commits = []struct {
	name  string
	group wal.GroupConfig
}{{"per-commit", wal.GroupConfig{}}, {"grouped", wal.GroupConfig{MaxBatch: 64}}}

// checkCampaign runs the campaign on one shard. No schedule may break an
// invariant, every directed bit flip must be detected, and the second
// schedule's recovery must have scanned and applied log records.
func checkCampaign(t *testing.T, cfg shard.TortureConfig) {
	t.Helper()
	cfg.Shards = 1
	rep, err := shard.Torture(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Error(v)
	}
	if want := cfg.Seeds * cfg.Schedules; len(rep.Schedules) != want {
		t.Fatalf("ran %d schedules, want %d", len(rep.Schedules), want)
	}
	if rep.Probes != len(rep.Schedules) || rep.Detected < int64(rep.Probes) {
		t.Errorf("probes=%d detected=%d: directed corruption not detected", rep.Probes, rep.Detected)
	}
	if st := rep.Schedules[1].Recovery; st.Records == 0 || st.Bytes == 0 || st.Applied == 0 {
		t.Errorf("second recovery scanned %d records, %d bytes, applied %d rows",
			st.Records, st.Bytes, st.Applied)
	}
	t.Log(rep.Summary())
}

// TestTortureShort runs the campaign at a reduced size on a single node
// under each concurrency-control mode, with one force per commit and with
// group commit. Under -short (the race legs) only the 2pl cells run:
// under the race detector a cell costs about 50 s per warehouse it loads.
func TestTortureShort(t *testing.T) {
	ccs := []db.CCMode{db.CC2PL, db.CCMVCC, db.CCSSI}
	schedules, txns := 3, 150
	if testing.Short() {
		ccs, schedules, txns = ccs[:1], 2, 80
	}
	for _, cc := range ccs {
		t.Run(cc.String(), func(t *testing.T) {
			for _, commit := range commits {
				t.Run(commit.name, func(t *testing.T) {
					checkCampaign(t, shard.TortureConfig{Seeds: 1, Schedules: schedules, Txns: txns,
						CC: cc, GroupCommit: commit.group})
				})
			}
		})
	}
}

// TestTortureBothCommitModes runs the single-node 2PL campaign over two
// seeds in each commit mode, where TestTortureShort's cells run one:
// randomly timed crashes land between pre-commit and force as well as on
// page I/O, and every schedule's invariants, the phantom slack of one per
// worker included, must hold for each seed.
func TestTortureBothCommitModes(t *testing.T) {
	schedules, txns := 4, 150
	if testing.Short() {
		schedules, txns = 2, 80
	}
	for _, commit := range commits {
		t.Run(commit.name, func(t *testing.T) {
			checkCampaign(t, shard.TortureConfig{Seeds: 2, Schedules: schedules, Txns: txns,
				GroupCommit: commit.group})
		})
	}
}
