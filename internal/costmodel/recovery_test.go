package costmodel

import (
	"math"
	"strings"
	"testing"
)

// flatTable prices every dim at the given cost.
func flatTable(t float64) func(int) (float64, error) {
	return func(int) (float64, error) { return t, nil }
}

func TestFaultRegimeArrivalProb(t *testing.T) {
	r := FaultRegime{MTTF: 1000}
	if p := r.ArrivalProb(4, 250); math.Abs(p-(1-math.Exp(-1))) > 1e-12 {
		t.Errorf("ArrivalProb(4,250) = %v, want 1-e^-1", p)
	}
	if p := (FaultRegime{}).ArrivalProb(4, 250); p != 0 {
		t.Errorf("fault-free regime arrival prob = %v", p)
	}
	if p := r.ArrivalProb(0, 250); p != 0 {
		t.Errorf("zero-node arrival prob = %v", p)
	}
	if p := r.ArrivalProb(1<<20, 1e12); p > 1 || p < 0.999 {
		t.Errorf("saturated arrival prob = %v", p)
	}
}

// A fault-free regime must reduce the model to the base cost exactly:
// one attempt, no waste, no backoff, zero overhead.
func TestRecoveryModelFaultFree(t *testing.T) {
	rm := &RecoveryModel{Name: "ff", AttemptTicks: flatTable(500)}
	bd, err := rm.Breakdown(3)
	if err != nil {
		t.Fatal(err)
	}
	if bd.ExpectedTicks != 500 || bd.ExpectedAttempts != 1 || bd.ExpectedWastedTicks != 0 ||
		bd.ExpectedBackoffNanos != 0 || bd.Overhead != 0 || bd.PVerified != 1 || bd.PExhausted != 0 {
		t.Errorf("fault-free breakdown = %+v", bd)
	}
	total, err := rm.Total(8)
	if err != nil || total != 500 {
		t.Errorf("Total(8) = %v, %v", total, err)
	}
}

// Hand-computed two-attempt recursion: dim 2, T=100 at every dim,
// arrival prob p=0.2 per attempt (MTTF chosen so n·T/MTTF solves it),
// every arrival persistent and detected, waste fraction 0.5,
// MaxAttempts 2, the supervisor's persistence streak of 2, no spares.
//
// Attempt 0: succeeds w.p. 0.8 (cost 100); fails w.p. 0.2 (waste 50),
// opening a persistent streak. Attempt 1: the persistent fault is
// detected for certain (waste 50), the streak reaches 2 and the cube
// shrinks — but the budget is spent, so that mass exhausts.
// E[total] = 0.8·100 + 0.2·(50+50) = 100; E[attempts] = 1.2;
// P[exhausted] = 0.2; E[shrinks] = 0.2.
func TestRecoveryModelHandComputed(t *testing.T) {
	p := 0.2
	mttf := -4.0 * 100 / math.Log(1-p) // ArrivalProb(4,100) == p
	rm := &RecoveryModel{
		Name:         "hand",
		AttemptTicks: flatTable(100),
		Regime:       FaultRegime{MTTF: mttf, PersistentFrac: 1},
		Policy:       PolicyParams{MaxAttempts: 2},
		Calib:        Calibration{DetectFrac: 1, WasteFrac: 0.5},
	}
	bd, err := rm.Breakdown(2)
	if err != nil {
		t.Fatal(err)
	}
	approx := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	approx("ExpectedTicks", bd.ExpectedTicks, 100)
	approx("ExpectedAttempts", bd.ExpectedAttempts, 1.2)
	approx("ExpectedRetries", bd.ExpectedRetries, 0.2)
	approx("ExpectedWastedTicks", bd.ExpectedWastedTicks, 20)
	approx("PVerified", bd.PVerified, 0.8)
	approx("PExhausted", bd.PExhausted, 0.2)
	approx("ExpectedQuarantines", bd.ExpectedQuarantines, 0.2)
	approx("ExpectedShrinks", bd.ExpectedShrinks, 0.2)
	approx("ExpectedSubstitutions", bd.ExpectedSubstitutions, 0)
	approx("Overhead", bd.Overhead, 0)
	// The one retry waits the expected first backoff: 10ms nominal,
	// equal jitter 0.5 → 7.5ms expected, weighted by the 0.2 mass.
	approx("ExpectedBackoffNanos", bd.ExpectedBackoffNanos, 0.2*7.5e6)
}

// With spares pooled, quarantine substitutes instead of shrinking.
func TestRecoveryModelSparesSubstitute(t *testing.T) {
	rm := &RecoveryModel{
		Name:         "spared",
		AttemptTicks: flatTable(100),
		Regime:       FaultRegime{MTTF: 100, PersistentFrac: 1},
		Policy:       PolicyParams{MaxAttempts: 6, Spares: 2},
		Calib:        DefaultCalibration(),
	}
	bd, err := rm.Breakdown(2)
	if err != nil {
		t.Fatal(err)
	}
	if bd.ExpectedSubstitutions <= 0 {
		t.Errorf("no substitutions with a pooled spare: %+v", bd)
	}
	if bd.ExpectedQuarantines < bd.ExpectedSubstitutions {
		t.Errorf("quarantines %v < substitutions %v", bd.ExpectedQuarantines, bd.ExpectedSubstitutions)
	}
	// The same regime without spares must shrink instead.
	rm.Policy.Spares = 0
	bd0, err := rm.Breakdown(2)
	if err != nil {
		t.Fatal(err)
	}
	if bd0.ExpectedShrinks <= bd.ExpectedShrinks {
		t.Errorf("shrinks with empty pool %v <= with spares %v", bd0.ExpectedShrinks, bd.ExpectedShrinks)
	}
}

// Overhead must grow monotonically as the machine gets less reliable.
func TestRecoveryOverheadCurveMonotone(t *testing.T) {
	rm := NewRecoveryModel("curve", PaperSFT(),
		FaultRegime{PersistentFrac: 0.5}, PolicyParams{}, DefaultCalibration())
	pts, err := rm.OverheadCurve(5, []float64{1e8, 1e6, 1e5, 1e4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Overhead <= pts[i-1].Overhead {
			t.Errorf("overhead not increasing with fault rate: %+v", pts)
		}
	}
	if pts[0].Overhead < 0 {
		t.Errorf("negative overhead at near-reliable MTTF: %+v", pts[0])
	}
	if pts[0].ArrivalsPerAttempt <= 0 {
		t.Errorf("arrivals per attempt not populated: %+v", pts[0])
	}
}

// RecoveryModel is a Coster: it must ride the shared projection and
// crossover machinery next to formula models.
func TestRecoveryModelProjects(t *testing.T) {
	rm := NewRecoveryModel("S_FT+repair", PaperSFT(),
		FaultRegime{MTTF: 1e7, PersistentFrac: 0.5}, PolicyParams{}, DefaultCalibration())
	rows, err := Project([]Coster{PaperSFT(), rm, PaperSequential()}, 2, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if !(r.Totals[1] >= r.Totals[0]) {
			t.Errorf("N=%d: repair-aware total %v below fault-free %v", r.N, r.Totals[1], r.Totals[0])
		}
	}
	x, err := Crossover(rm, PaperSequential(), 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	xff, err := Crossover(PaperSFT(), PaperSequential(), 2, 20)
	if err != nil {
		t.Fatal(err)
	}
	if x == 0 {
		t.Fatal("repair-aware S_FT never beats the host sort at this MTTF")
	}
	if x < xff {
		t.Errorf("repair cost moved the crossover earlier: %d < %d", x, xff)
	}
	if !strings.Contains(rm.CostName(), "repair") {
		t.Errorf("CostName = %q", rm.CostName())
	}
}

func TestRecoveryModelErrors(t *testing.T) {
	var nilModel *RecoveryModel
	if _, err := nilModel.Breakdown(2); err == nil {
		t.Error("nil model: want error")
	}
	rm := &RecoveryModel{Name: "x", AttemptTicks: flatTable(100)}
	if _, err := rm.Breakdown(0); err == nil {
		t.Error("dim 0: want error")
	}
	if _, err := rm.Total(12); err == nil {
		t.Error("non-power-of-two N: want error")
	}
	if _, err := rm.Total(1); err == nil {
		t.Error("N=1: want error")
	}
	rm.AttemptTicks = flatTable(0)
	if _, err := rm.Breakdown(2); err == nil {
		t.Error("non-positive attempt cost: want error")
	}
	rm.AttemptTicks = AttemptTable(map[int]float64{2: 100})
	if _, err := rm.Breakdown(3); err == nil {
		t.Error("missing baseline dim: want error")
	}
	bad := Model{Name: "bad", Comm: Formula{{Coef: 1, Basis: Basis(99)}}}
	if _, err := NewRecoveryModel("b", bad, FaultRegime{}, PolicyParams{}, Calibration{}).Breakdown(2); err == nil {
		t.Error("base Eval failure: want error")
	}
}

// Breakdown must add its floating-point expectations in one order, so
// one model gives one bit pattern on every call. Iterating the state
// map in Go's random order made the last digits of the expectations
// differ between calls, and with them the recoverycost artifact.
func TestRecoveryBreakdownRepeatsBitForBit(t *testing.T) {
	rm := &RecoveryModel{
		Name:         "mixed",
		AttemptTicks: func(dim int) (float64, error) { return 1000 * float64(dim*dim), nil },
		Regime:       FaultRegime{MTTF: 3e4, PersistentFrac: 0.4},
		Policy:       PolicyParams{MaxAttempts: 12, Spares: 2},
		Calib:        Calibration{DetectFrac: 0.9, WasteFrac: 0.6},
	}
	want, err := rm.Breakdown(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 50; i++ {
		got, err := rm.Breakdown(4)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("call %d: %+v\nfirst call: %+v", i, got, want)
		}
	}
}
