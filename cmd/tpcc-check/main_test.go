package main

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

func TestGatesInCIOrder(t *testing.T) {
	want := []string{"xval", "shard-xval", "torture", "shard-torture", "commit", "cc"}
	if got := gateNames(gates()); !reflect.DeepEqual(got, want) {
		t.Fatalf("gates = %v, want %v", got, want)
	}
}

// stubTable records which gates ran; the gate named "fail" fails.
func stubTable(ran *[]string) []gate {
	var table []gate
	for _, name := range []string{"a", "fail", "b"} {
		table = append(table, gate{name, func(options) error {
			*ran = append(*ran, name)
			if name == "fail" {
				return errors.New("stub failure")
			}
			return nil
		}})
	}
	return table
}

func TestEveryGateNameResolves(t *testing.T) {
	for _, name := range gateNames(gates()) {
		var ran []string
		table := gates()
		for i := range table {
			n := table[i].name
			table[i].run = func(options) error { ran = append(ran, n); return nil }
		}
		if code := run(table, []string{name}, io.Discard, io.Discard); code != 0 {
			t.Fatalf("gate %q: exit %d, want 0", name, code)
		}
		if !reflect.DeepEqual(ran, []string{name}) {
			t.Fatalf("gate %q ran %v", name, ran)
		}
	}
}

func TestUnknownGateExits2AndListsNames(t *testing.T) {
	for _, args := range [][]string{{"nope"}, {"a", "a"}, {"-seeds", "-1", "a"}} {
		var ran []string
		var stderr bytes.Buffer
		if code := run(stubTable(&ran), args, io.Discard, &stderr); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
		if len(ran) != 0 {
			t.Fatalf("%v: ran %v before rejecting the invocation", args, ran)
		}
		if args[0] == "-seeds" {
			continue
		}
		for _, name := range []string{"a", "fail", "b"} {
			if !strings.Contains(stderr.String(), name) {
				t.Fatalf("%v: stderr %q does not list %q", args, stderr.String(), name)
			}
		}
	}
}

func TestFailingGateExits1(t *testing.T) {
	var ran []string
	var stderr bytes.Buffer
	if code := run(stubTable(&ran), nil, io.Discard, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if want := []string{"a", "fail"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("ran %v, want %v: the gates after a failure must not run", ran, want)
	}
	if !strings.Contains(stderr.String(), "fail: FAIL: stub failure") {
		t.Fatalf("stderr %q does not name the failed gate and its error", stderr.String())
	}

	ran = nil
	if code := run(stubTable(&ran), []string{"b", "a"}, io.Discard, io.Discard); code != 0 {
		t.Fatalf("passing selection: exit %d, want 0", code)
	}
	if want := []string{"a", "b"}; !reflect.DeepEqual(ran, want) {
		t.Fatalf("selection ran %v, want table order %v", ran, want)
	}
}
