package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestAllPlotGolden pins the full text of `sortbench -experiment all
// -plot` — Table 1 and Figures 6 to 8 with their charts — at the
// default seed. Every number in it is virtual time, so the output is
// the same on every machine and run.
func TestAllPlotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "all", "-plot"}, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "all-plot.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run go test -run Golden -update ./cmd/sortbench to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("output differs from %s (rerun with -update if the change is intended):\n%s", path, buf.String())
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "table1", "-fitdims", "2,3,4,5"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Component-time table", "S_FT", "Sequential", "R²"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFig6Output(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "fig6", "-dims", "2,3", "-fitdims", "2,3,4"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 6") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestFig7Output(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "fig7", "-fitdims", "2,3,4,5", "-maxprojdim", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure 7") || !strings.Contains(out, "Crossover") {
		t.Errorf("output:\n%s", out)
	}
}

func TestFig8Output(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-experiment", "fig8", "-blockdims", "2,3", "-m", "8"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 8") {
		t.Errorf("output:\n%s", buf.String())
	}
}

func TestRejectsBadFlags(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-experiment", "nope"}, &buf); err == nil {
		t.Error("unknown experiment: want error")
	}
	if err := run([]string{"-dims", "x"}, &buf); err == nil {
		t.Error("garbage dims: want error")
	}
	if err := run([]string{"-dims", "25"}, &buf); err == nil {
		t.Error("dim out of range: want error")
	}
	if err := run([]string{"-dims", ","}, &buf); err == nil {
		t.Error("empty dims: want error")
	}
}

func TestParseDims(t *testing.T) {
	got, err := parseDims(" 2, 3 ,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 2 || got[2] != 5 {
		t.Fatalf("parseDims = %v", got)
	}
}
