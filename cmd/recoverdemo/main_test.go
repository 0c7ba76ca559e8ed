package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestTransientRecovery(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-strategy", "view-lie", "-site", "6"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"transient view-lie fault at physical node 6",
		"fail-stop",
		"decision: retry",
		"verified clean",
		"Verified result",
		"quarantined:     []",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestPersistentQuarantine(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-strategy", "split-lie", "-site", "5", "-persistent"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"persistent split-lie fault at physical node 5",
		"quarantine node 5, shrink to dim 2",
		"verified clean",
		"quarantined:     [5]",
		"final cube dim:  2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-strategy", "nonsense"}, &buf); err == nil {
		t.Error("unknown strategy: want error")
	}
	if err := run([]string{"-dim", "0"}, &buf); err == nil {
		t.Error("dim 0: want error")
	}
	if err := run([]string{"-site", "99"}, &buf); err == nil {
		t.Error("site outside cube: want error")
	}
}

func TestPersistentSubstitution(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-strategy", "split-lie", "-site", "5", "-persistent",
		"-spares", "1"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"persistent split-lie fault at physical node 5",
		"1 spare(s) pooled",
		"quarantine node 5, substitute spare 8 at its slot (dim 3 preserved)",
		"verified clean",
		"quarantined:     [5]",
		"spares consumed: [8] (of 1 pooled)",
		"final cube dim:  3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestRejectsNegativeSpares(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-spares", "-2"}, &buf); err == nil {
		t.Error("negative spares: want error")
	}
}

// TestNarrationRepeats: the narration lists each attempt's host
// evidence in (stage, iter, node) order, not in the order node
// goroutines happened to reach the host, so the same command prints the
// same bytes every time.
func TestNarrationRepeats(t *testing.T) {
	args := []string{"-strategy", "key-lie", "-site", "7", "-persistent"}
	var first string
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if err := run(args, &buf); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("run %d printed\n%s\nrun 0 printed\n%s", i, buf.String(), first)
		}
	}
}
