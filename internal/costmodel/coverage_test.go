package costmodel

import (
	"math"
	"testing"
)

func TestCoverageCalibrationValidate(t *testing.T) {
	good := CoverageCalibration{Classes: []ClassDetection{
		{Class: "message", Share: 0.5, DetectFrac: 1},
		{Class: "memory", Share: 0.5, DetectFrac: 0.9},
	}}
	if err := good.Validate(); err != nil {
		t.Fatalf("good profile rejected: %v", err)
	}
	bads := map[string]CoverageCalibration{
		"empty": {},
		"negative share": {Classes: []ClassDetection{
			{Class: "message", Share: -1, DetectFrac: 1}}},
		"fraction above one": {Classes: []ClassDetection{
			{Class: "message", Share: 1, DetectFrac: 1.5}}},
		"zero total share": {Classes: []ClassDetection{
			{Class: "message", Share: 0, DetectFrac: 1}}},
	}
	for name, bad := range bads {
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := bad.EffectiveDetectFrac(); err == nil {
			t.Errorf("%s: effective fraction computed", name)
		}
	}
}

func TestEffectiveDetectFrac(t *testing.T) {
	cov := CoverageCalibration{Classes: []ClassDetection{
		{Class: "message", Share: 3, DetectFrac: 1},
		{Class: "comparison", Share: 1, DetectFrac: 0.6},
	}}
	eff, err := cov.EffectiveDetectFrac()
	if err != nil {
		t.Fatal(err)
	}
	// (3·1 + 1·0.6)/4 = 0.9; shares need not be normalized.
	if math.Abs(eff-0.9) > 1e-12 {
		t.Fatalf("effective fraction = %v, want 0.9", eff)
	}
}

// TestWithCoverageCalibration is the coverage-calibrated regime's
// calibration test: per-class measured fractions fold into the model's
// DetectFrac, and the folded model prices a supervision differently
// from the idealized one exactly when coverage is imperfect.
func TestWithCoverageCalibration(t *testing.T) {
	base := NewRecoveryModel(
		"ideal",
		PaperSFT(),
		FaultRegime{MTTF: 1e6, PersistentFrac: 0.5},
		PolicyParams{},
		DefaultCalibration(),
	)

	perfect := CoverageCalibration{Classes: []ClassDetection{
		{Class: "message", Share: 0.5, DetectFrac: 1},
		{Class: "comparison", Share: 0.25, DetectFrac: 1},
		{Class: "memory", Share: 0.25, DetectFrac: 1},
	}}
	same, err := base.WithCoverage("", perfect)
	if err != nil {
		t.Fatal(err)
	}
	if same.Calib.DetectFrac != 1 {
		t.Fatalf("perfect coverage folded to %v", same.Calib.DetectFrac)
	}
	if same.Name != base.Name {
		t.Fatalf("empty name overrode %q with %q", base.Name, same.Name)
	}
	bdBase, err := base.Breakdown(8)
	if err != nil {
		t.Fatal(err)
	}
	bdSame, err := same.Breakdown(8)
	if err != nil {
		t.Fatal(err)
	}
	if bdSame.ExpectedTicks != bdBase.ExpectedTicks {
		t.Fatalf("perfect coverage moved E[ticks]: %v vs %v", bdSame.ExpectedTicks, bdBase.ExpectedTicks)
	}

	leaky := CoverageCalibration{Classes: []ClassDetection{
		{Class: "message", Share: 0.5, DetectFrac: 1},
		{Class: "comparison", Share: 0.25, DetectFrac: 0.8},
		{Class: "memory", Share: 0.25, DetectFrac: 0.6},
	}}
	cov, err := base.WithCoverage("leaky", leaky)
	if err != nil {
		t.Fatal(err)
	}
	wantEff := 0.5*1 + 0.25*0.8 + 0.25*0.6
	if math.Abs(cov.Calib.DetectFrac-wantEff) > 1e-12 {
		t.Fatalf("folded DetectFrac = %v, want %v", cov.Calib.DetectFrac, wantEff)
	}
	if cov.Name != "leaky" {
		t.Fatalf("name = %q", cov.Name)
	}
	// Everything but detection carries over.
	if cov.Calib.WasteFrac != base.Calib.WasteFrac || cov.Regime != base.Regime {
		t.Fatal("coverage fold changed unrelated fields")
	}
	// The base model is untouched (WithCoverage returns a copy).
	if base.Calib.DetectFrac != 1 {
		t.Fatalf("base model mutated: DetectFrac %v", base.Calib.DetectFrac)
	}
	bdCov, err := cov.Breakdown(8)
	if err != nil {
		t.Fatal(err)
	}
	// Undetected manifestations complete verified in the model, so
	// leaky coverage must cost fewer retries and fewer expected ticks.
	if bdCov.ExpectedTicks >= bdBase.ExpectedTicks {
		t.Fatalf("leaky coverage E[ticks] %v >= ideal %v", bdCov.ExpectedTicks, bdBase.ExpectedTicks)
	}
	if bdCov.ExpectedRetries >= bdBase.ExpectedRetries {
		t.Fatalf("leaky coverage E[retries] %v >= ideal %v", bdCov.ExpectedRetries, bdBase.ExpectedRetries)
	}

	if _, err := (*RecoveryModel)(nil).WithCoverage("x", perfect); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := base.WithCoverage("x", CoverageCalibration{}); err == nil {
		t.Error("empty profile accepted")
	}
}
