package experiments

import (
	"math"
	"strings"
	"testing"

	"repro/internal/costmodel"
)

// TestRecoveryModelWithinTolerance is the acceptance gate for the
// recovery-aware cost model: calibrate from a seeded simnet sweep,
// then require the model's predicted E[total vticks] to land within
// 10% of the measured mean in every swept (dim, load, spares) cell.
func TestRecoveryModelWithinTolerance(t *testing.T) {
	if testing.Short() {
		t.Skip("seeded recovery sweep is slow")
	}
	cfg := RecoverySweep{Seed: 1989}
	cells, err := MeasureRecovery(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cal, err := CalibrateRecovery(cells)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("calibration: attempt=%s (R²=%.4f) detect=%.4f waste=%.4f",
		cal.Attempt, cal.AttemptR2, cal.Calib.DetectFrac, cal.Calib.WasteFrac)
	if cal.Calib.DetectFrac <= 0 || cal.Calib.DetectFrac > 1 {
		t.Fatalf("detect fraction out of range: %v", cal.Calib.DetectFrac)
	}
	if cal.Calib.WasteFrac <= 0 || cal.Calib.WasteFrac > 1.5 {
		t.Fatalf("waste fraction implausible: %v", cal.Calib.WasteFrac)
	}

	vals, err := ValidateRecovery(cells, cal, 0.10)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(cells) {
		t.Fatalf("validated %d of %d cells", len(vals), len(cells))
	}
	for _, v := range vals {
		t.Logf("dim=%d load=%.2f spares=%d: predicted=%.0f measured=%.0f relerr=%.3f",
			v.Cell.Dim, v.Cell.Load, v.Cell.Spares, v.Predicted, v.Measured, v.RelErr)
		if !v.Within {
			t.Errorf("dim=%d load=%.2f spares=%d: model off by %.1f%% (>10%%)",
				v.Cell.Dim, v.Cell.Load, v.Cell.Spares, 100*v.RelErr)
		}
	}
}

// TestFigure7Faulty checks the faulty-regime projection composes the
// fitted fault-free models with repair-aware variants and keeps the
// crossover ordering sane: repair cost can only push the crossover to
// larger N.
func TestFigure7Faulty(t *testing.T) {
	fit := Table1Result{
		SFT:        costmodel.PaperSFT(),
		Sequential: costmodel.PaperSequential(),
	}
	cal := RecoveryCalibration{
		Calib:          costmodel.Calibration{DetectFrac: 0.9, WasteFrac: 0.5},
		PersistentFrac: 0.5,
	}
	fig, err := Figure7Faulty(fit, cal, []float64{1e8, 1e6}, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Models) != 4 { // S_FT, two faulty variants, Sequential
		t.Fatalf("model count = %d", len(fig.Models))
	}
	if fig.PaperCrossover == 0 || fig.MeasuredCrossover == 0 {
		t.Fatalf("missing crossover: %+v", fig)
	}
	if fig.MeasuredCrossover < fig.PaperCrossover {
		t.Errorf("repair cost moved crossover earlier: %d < %d",
			fig.MeasuredCrossover, fig.PaperCrossover)
	}
	if !strings.Contains(fig.Render(), "faulty regime") {
		t.Error("render missing title")
	}
	for _, r := range fig.Rows {
		// Repair-aware totals bracket between fault-free S_FT and never negative.
		if r.Totals[1] < r.Totals[0] || r.Totals[2] < r.Totals[0] {
			t.Errorf("N=%d: repair-aware cheaper than fault-free: %v", r.N, r.Totals)
		}
	}
	if math.IsNaN(fig.Rows[0].Totals[1]) {
		t.Error("NaN in projection")
	}
}
