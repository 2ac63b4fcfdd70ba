package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// engineLines are the report lines every run prints, at any shard count.
var engineLines = []string{
	"# engine run: ", "\ntpmC\t", "\nnew-order\t", "\ncommits\t", "\nlog_forces\t",
	"\nforces_per_commit\t", "\nlocks_acquired\t", "\nretries\t", "\nsheds\t",
	"\nconsistency_checks\tC1-C4\tok\n", "\nrelation\taccesses\tmiss_rate\n", "\nstock\t",
}

// shardLines are the lines only a cluster run prints.
var shardLines = []string{"\nshard\tlocal\tdist\tparticipant\taborts\tsheds\n", "\nmeasured: E[R_s]="}

// TestRunReportsEveryShardCount: a one-node run and a two-shard run with a
// warmup both exit 0 and print the shared report; only the cluster adds
// its per-shard and Appendix A lines, and its shards' local plus
// distributed commits are the measured run's, the warmup's reset away.
// The deleted -crash flag is a bad invocation.
func TestRunReportsEveryShardCount(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		cluster bool
	}{
		{"one node", []string{"-shards", "1", "-warmup", "50"}, false},
		{"two shards", []string{"-shards", "2", "-warmup", "50"}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			args := append([]string{"-txns", "200", "-workers", "2", "-buffer-pages", "2048"}, tc.args...)
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("exit %d\n%s", code, stderr.String())
			}
			out := stdout.String()
			for _, l := range engineLines {
				if !strings.Contains(out, l) {
					t.Errorf("no %q line in\n%s", l, out)
				}
			}
			for _, l := range shardLines {
				if strings.Contains(out, l) != tc.cluster {
					t.Errorf("line %q printed: %v, want %v", l, !tc.cluster, tc.cluster)
				}
			}
			if !tc.cluster {
				return
			}
			var committed int64
			rows := strings.Split(out[strings.Index(out, shardLines[0])+len(shardLines[0]):], "\n")
			for _, row := range rows[:2] {
				var id, local, dist int64
				if _, err := fmt.Sscanf(row, "%d\t%d\t%d", &id, &local, &dist); err != nil {
					t.Fatalf("shard row %q: %v", row, err)
				}
				committed += local + dist
			}
			if committed != 200 {
				t.Errorf("shards count %d local + distributed commits, want the measured run's 200", committed)
			}
		})
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-crash"}, &stdout, &stderr); code != 2 {
		t.Fatalf("-crash: exit %d, want 2", code)
	}
	if stdout.Len() != 0 {
		t.Fatalf("-crash printed a report:\n%s", stdout.String())
	}
}
