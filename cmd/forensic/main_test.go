package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// dumpFile injects a deterministic key lie, captures the forensic
// report the detection produced, and writes it to disk the way the
// chaos harness and /debug/forensic do.
func dumpFile(t *testing.T) string {
	t.Helper()
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	spec := fault.Spec{Node: 5, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 7777}
	res, err := fault.InjectSFT(3, keys, 1, spec, 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Verdict != fault.Detected || res.Forensic == nil {
		t.Fatalf("injection not detected with a report: %+v", res)
	}
	buf, err := res.Forensic.JSON()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dump.json")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRenderTimelineDiffReproChrome(t *testing.T) {
	path := dumpFile(t)

	var out bytes.Buffer
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Forensic report", "Causal timeline", "Accusation chain", "accuse"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("timeline output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-diff", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Digest diff") {
		t.Errorf("diff output:\n%s", out.String())
	}

	out.Reset()
	if err := run([]string{"-repro", "-seed", "42", path}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"chaostest.Scenario{", "Seed:        42", "Dim:         3"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("repro output missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	if err := run([]string{"-chrome", path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"traceEvents"`) {
		t.Errorf("chrome output:\n%s", out.String())
	}
}

func TestLoadErrors(t *testing.T) {
	if err := run([]string{"/nonexistent/dump.json"}, &bytes.Buffer{}); err == nil {
		t.Error("missing file should error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte("not json"), 0o644)
	if err := run([]string{bad}, &bytes.Buffer{}); err == nil {
		t.Error("malformed file should error")
	}
	if err := run([]string{}, &bytes.Buffer{}); err == nil {
		t.Error("no args should error")
	}
}
