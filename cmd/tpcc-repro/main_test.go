package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tpccmodel/internal/experiments"
)

// tinyOptions keeps the whole job table to a few seconds.
func tinyOptions() experiments.Options {
	return experiments.Options{
		Warehouses: 1,
		Seed:       7,
		WarmupTxns: 2_000,
		Batches:    3,
		BatchTxns:  3_000,
		Level:      0.90,
		BufferMB:   []float64{2, 8, 16, 32, 48},
		PageSize:   4096,
		Workers:    2,
	}
}

func TestSelectJobsEmptyIsWholeTable(t *testing.T) {
	table := jobTable(tinyOptions())
	sel, err := selectJobs(table, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jobNames(sel), jobNames(table); !reflect.DeepEqual(got, want) {
		t.Fatalf("empty selection = %v, want the table %v", got, want)
	}
}

func TestSelectJobsKeepsTableOrder(t *testing.T) {
	sel, err := selectJobs(jobTable(tinyOptions()), []string{"table4", "fig5", "table1"})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := jobNames(sel), []string{"table1", "fig5", "table4"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("selection = %v, want %v", got, want)
	}
}

func TestSelectJobsRejectsUnknownAndRepeated(t *testing.T) {
	table := jobTable(tinyOptions())
	for _, names := range [][]string{
		{"fig5", "fig99"},
		{"fig10-minima"}, // written by fig10, not a job of its own
		{"fig5", "table1", "fig5"},
	} {
		_, err := selectJobs(table, names)
		if err == nil {
			t.Fatalf("selection %v accepted", names)
		}
		for _, valid := range jobNames(table) {
			if !strings.Contains(err.Error(), valid) {
				t.Fatalf("selection %v: error %q does not list %q", names, err, valid)
			}
		}
	}
}

// TestSelectionWritesWhatTheTableWrites runs the whole table and then a
// selection into separate directories: the selection must write exactly its
// own files, byte-identical to the whole table's.
func TestSelectionWritesWhatTheTableWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment at tiny scale")
	}
	opts := tinyOptions()
	all, picked := t.TempDir(), t.TempDir()
	if err := reproduce(jobTable(opts), opts.Workers, all, io.Discard); err != nil {
		t.Fatal(err)
	}
	names := []string{"table1", "fig3", "fig5", "skew-headlines", "tables6-7"}
	sel, err := selectJobs(jobTable(opts), names)
	if err != nil {
		t.Fatal(err)
	}
	if err := reproduce(sel, opts.Workers, picked, io.Discard); err != nil {
		t.Fatal(err)
	}

	files, err := filepath.Glob(filepath.Join(picked, "*"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range files {
		got = append(got, strings.TrimSuffix(filepath.Base(f), ".tsv"))
	}
	want := append([]string(nil), names...)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selection wrote %v, want %v", got, want)
	}
	for _, n := range names {
		a, err := os.ReadFile(filepath.Join(all, n+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(picked, n+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s.tsv: selection wrote %d bytes that differ from the whole table's %d", n, len(b), len(a))
		}
	}
}

// TestCheckedInResultsMatchTheTable regenerates the experiments that cost
// nothing at paper scale and compares them with the results/*.tsv that
// EXPERIMENTS.md quotes: a parameter changed in the table without
// regenerating results/ fails here.
func TestCheckedInResultsMatchTheTable(t *testing.T) {
	dir := t.TempDir()
	names := []string{"table1", "fig3", "fig4", "fig5", "fig6", "fig7", "skew-headlines", "tables6-7"}
	sel, err := selectJobs(jobTable(experiments.FullScale()), names)
	if err != nil {
		t.Fatal(err)
	}
	if err := reproduce(sel, 2, dir, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		got, err := os.ReadFile(filepath.Join(dir, n+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "results", n+".tsv"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s.tsv differs from results/%s.tsv (%d vs %d bytes); regenerate with `go run ./cmd/tpcc-repro -scale full -out results %s`",
				n, n, len(got), len(want), n)
		}
	}
}
