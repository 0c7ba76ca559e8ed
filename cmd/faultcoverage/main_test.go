package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// smokeArgs is the smallest sweep that still exercises every adversary
// class, both algorithms, the cost-model fold, and the self-check.
func smokeArgs(extra ...string) []string {
	args := []string{
		"-dims", "2", "-rates", "1", "-runs", "2", "-blocklen", "2",
		"-seed", "1989",
	}
	return append(args, extra...)
}

func TestSmokeReport(t *testing.T) {
	var buf bytes.Buffer
	if err := run(smokeArgs(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Detection-coverage matrix",
		"cmp-persistent",
		"mem-wipe",
		"Per-class totals",
		"effective detection fraction",
		"S_FT+repair (ideal detection)",
		"S_FT+repair (measured coverage)",
		"self-check passed: no silent-wrong outcomes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "SILENT-WRONG:") {
		t.Errorf("self-check reported escapes:\n%s", out)
	}
}

func TestJSONArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "matrix.json")
	var buf bytes.Buffer
	if err := run(smokeArgs("-json", path), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "matrix written to") {
		t.Errorf("missing artifact note in:\n%s", buf.String())
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var art artifact
	if err := json.Unmarshal(blob, &art); err != nil {
		t.Fatal(err)
	}
	// 9 message strategies (one of them absence) + 2 cmp modes + 3 mem
	// modes at one rate, for two algorithms at one dimension.
	if len(art.Cells) != 28 {
		t.Errorf("artifact cells = %d, want 28", len(art.Cells))
	}
	if len(art.Classes) != 4 {
		t.Errorf("artifact classes = %d, want 4", len(art.Classes))
	}
	if art.SilentWrong != 0 {
		t.Errorf("artifact silent-wrong = %d", art.SilentWrong)
	}
	if art.EffectiveDetectFrac <= 0 || art.EffectiveDetectFrac > 1 {
		t.Errorf("effective detect frac = %v", art.EffectiveDetectFrac)
	}
	if len(art.Calibration.Classes) != 4 {
		t.Errorf("calibration classes = %+v", art.Calibration.Classes)
	}
}

func TestRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	for _, args := range [][]string{
		{"-dims", "x"},
		{"-dims", ""},
		{"-rates", "often"},
		{"-rates", "2"}, // outside (0,1]
		{"-dims", "0"},  // below the sweep's minimum dimension
	} {
		if err := run(args, &buf); err == nil {
			t.Errorf("args %v: want error", args)
		}
	}
}
