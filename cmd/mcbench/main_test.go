package main

import (
	"strings"
	"testing"
)

func TestRunList(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-list"}, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"fig9", "tab2", "abl-resolver", "all"} {
		if !strings.Contains(out, want) {
			t.Errorf("list output missing %q", want)
		}
	}
}

func TestRunNoExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run(nil, &sb); err == nil {
		t.Error("no -exp accepted")
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-exp", "nope"}, &sb); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunBadFlag(t *testing.T) {
	var sb strings.Builder
	if err := run([]string{"-bogus"}, &sb); err == nil {
		t.Error("bogus flag accepted")
	}
}

func TestRunSingleExperiment(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "tab1", "-capacity", "4608", "-runs", "1",
		"-queries", "100", "-maxloop", "100", "-seed", "3"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"Table I", "Cuckoo", "B-McCuckoo", "completed in", "seed=3"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCSVOutput(t *testing.T) {
	var sb strings.Builder
	err := run([]string{"-exp", "tab1", "-csv", "-capacity", "4608", "-runs", "1",
		"-queries", "100"}, &sb)
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "# tab1") || !strings.Contains(out, "scheme,load at first collision") {
		t.Errorf("CSV output malformed:\n%s", out)
	}
	if strings.Contains(out, "completed in") {
		t.Error("CSV mode should not print timing lines")
	}
}
