package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

var updateCoverage = flag.Bool("update", false, "rewrite golden files")

// goldenSweep is the fixed-seed sweep the golden file pins: small but
// still spanning every adversary class and both algorithms.
func goldenSweep() CoverageSweep {
	return CoverageSweep{
		Dims:     []int{2},
		Rates:    []float64{1},
		Runs:     2,
		BlockLen: 2,
		Seed:     1989,
	}
}

// TestCoverageMatrixGolden pins the rendered matrix on a fixed seed:
// any change to the verdicts, the detector attribution, or the table
// format shows up as a diff against testdata/coverage_matrix.golden.
func TestCoverageMatrixGolden(t *testing.T) {
	cells, err := MeasureCoverage(goldenSweep())
	if err != nil {
		t.Fatal(err)
	}
	got := RenderCoverage(cells)
	path := filepath.Join("testdata", "coverage_matrix.golden")
	if *updateCoverage {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run go test -run Golden -update ./internal/experiments to create)", err)
	}
	if got != string(want) {
		t.Errorf("coverage matrix drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	// The sweep is the Theorem 3 check in matrix form: no escapes, and
	// every run of every cell lands on exactly one verdict.
	if esc := SilentWrongCells(cells); len(esc) != 0 {
		t.Fatalf("silent-wrong cells: %+v", esc)
	}
	detected := 0
	for _, c := range cells {
		if c.Runs != goldenSweep().Runs || c.Detected+c.Correct+c.Silent != c.Runs {
			t.Errorf("%s %s dim %d: verdicts %d+%d+%d don't cover %d runs of %d",
				c.Algo, c.Label, c.Dim, c.Detected, c.Correct, c.Silent, c.Runs, goldenSweep().Runs)
		}
		detected += c.Detected
	}
	if detected == 0 {
		t.Error("the sweep detected nothing")
	}
}

func TestCoverageSweepRejectsBadConfig(t *testing.T) {
	if _, err := MeasureCoverage(CoverageSweep{Dims: []int{0}}); err == nil {
		t.Error("dim 0 accepted")
	}
	if _, err := MeasureCoverage(CoverageSweep{Rates: []float64{0}}); err == nil {
		t.Error("rate 0 accepted")
	}
	if _, err := MeasureCoverage(CoverageSweep{Rates: []float64{1.5}}); err == nil {
		t.Error("rate 1.5 accepted")
	}
}

// synthetic cells exercise the fold/calibrate paths without running
// simulations.
func syntheticCells() []CoverageCell {
	return []CoverageCell{
		{Algo: AlgoSFT, Dim: 2, Class: fault.ClassMessage, Label: "key-lie", Rate: 1,
			Runs: 10, Detected: 9, Correct: 1},
		{Algo: AlgoSFT, Dim: 2, Class: fault.ClassComparison, Label: "cmp-transient", Rate: 0.5,
			Runs: 10, Detected: 8, Correct: 2},
		{Algo: AlgoBlockFT, Dim: 2, Class: fault.ClassComparison, Label: "cmp-transient", Rate: 0.5,
			Runs: 10, Detected: 10},
		{Algo: AlgoBlockFT, Dim: 2, Class: fault.ClassMemory, Label: "mem-flip", Rate: 1,
			Runs: 10, Detected: 9, Silent: 1},
	}
}

func TestSummarizeAndSilentWrongCells(t *testing.T) {
	cells := syntheticCells()
	sums := SummarizeCoverage(cells)
	if len(sums) != 3 {
		t.Fatalf("summaries = %+v", sums)
	}
	// fault.AllClasses order: message, comparison, memory.
	if sums[0].Class != fault.ClassMessage || sums[1].Class != fault.ClassComparison || sums[2].Class != fault.ClassMemory {
		t.Fatalf("class order = %v %v %v", sums[0].Class, sums[1].Class, sums[2].Class)
	}
	if sums[1].Runs != 20 || sums[1].Detected != 18 {
		t.Errorf("comparison totals = %+v", sums[1])
	}
	if got := sums[1].DetectFrac(); got != 0.9 {
		t.Errorf("comparison detect frac = %v", got)
	}
	esc := SilentWrongCells(cells)
	if len(esc) != 1 || esc[0].Label != "mem-flip" {
		t.Errorf("silent-wrong cells = %+v", esc)
	}
	if (ClassCoverage{}).DetectFrac() != 0 || (CoverageCell{}).DetectFrac() != 0 {
		t.Error("zero-run detect frac not 0")
	}
}

func TestCalibrateCoverage(t *testing.T) {
	cal, err := CalibrateCoverage(syntheticCells())
	if err != nil {
		t.Fatal(err)
	}
	if len(cal.Classes) != 3 {
		t.Fatalf("classes = %+v", cal.Classes)
	}
	byName := map[string]float64{}
	var shares float64
	for _, cd := range cal.Classes {
		byName[cd.Class] = cd.DetectFrac
		shares += cd.Share
	}
	if byName["message"] != 0.9 || byName["comparison"] != 0.9 || byName["memory"] != 0.9 {
		t.Errorf("detect fractions = %v", byName)
	}
	if shares < 0.999 || shares > 1.001 {
		t.Errorf("shares sum to %v", shares)
	}
	eff, err := cal.EffectiveDetectFrac()
	if err != nil {
		t.Fatal(err)
	}
	if eff < 0.899 || eff > 0.901 {
		t.Errorf("effective fraction = %v", eff)
	}
	if _, err := CalibrateCoverage(nil); err == nil {
		t.Error("empty matrix calibrated")
	}
}

func TestRenderDetectorsDeterministic(t *testing.T) {
	d := map[string]int{"progress": 2, "absence": 1, "feasibility": 3}
	want := "absence:1 feasibility:3 progress:2"
	for i := 0; i < 8; i++ {
		if got := renderDetectors(d); got != want {
			t.Fatalf("render %d = %q", i, got)
		}
	}
	if renderDetectors(nil) != "-" {
		t.Error("empty histogram not rendered as -")
	}
}
