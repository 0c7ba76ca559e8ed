package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestCoverageMatrixDim2(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-dim", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Error coverage",
		"key-lie",
		"split-lie",
		"Theorem 3 holds",
		"S_NR silently delivered corrupted output",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "0 silent-wrong") {
		t.Errorf("summary reports silent-wrong runs:\n%s", out)
	}
}

func TestRejectsBadDim(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-dim", "0"}, &buf); err == nil {
		t.Error("dim 0: want error")
	}
	if err := run([]string{"-dim", "9"}, &buf); err == nil {
		t.Error("dim 9: want error")
	}
}
