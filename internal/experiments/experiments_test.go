package experiments

import (
	"strings"
	"testing"
)

func TestKeysDeterministic(t *testing.T) {
	a := Keys(16, 1)
	b := Keys(16, 1)
	c := Keys(16, 2)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different keys")
	}
	if !diff {
		t.Error("different seeds produced identical keys")
	}
}

func TestMeasurementsProduceSaneCosts(t *testing.T) {
	for _, m := range []int{1, 4} {
		for _, algo := range []Algorithm{SNR, SFT, HostSort, HostVerify} {
			ms, err := Measure(algo, 3, m, 42)
			if err != nil {
				t.Fatalf("%v m=%d: %v", algo, m, err)
			}
			if ms.N != 8 || ms.M != m {
				t.Errorf("%v m=%d: N=%d M=%d", algo, m, ms.N, ms.M)
			}
			if ms.Makespan <= 0 || ms.Comm <= 0 || ms.Comp <= 0 {
				t.Errorf("%v m=%d: non-positive costs %+v", algo, m, ms)
			}
			if ms.Msgs <= 0 || ms.Bytes <= 0 {
				t.Errorf("%v m=%d: no traffic recorded %+v", algo, m, ms)
			}
		}
	}
	if _, err := Measure(Algorithm(99), 2, 1, 42); err == nil {
		t.Error("unknown algorithm: want error")
	}
}

// The reproduced relationships the paper reports:
//   - S_FT is slower than S_NR but has the same main-loop message count
//     (tested in core); here we check makespan ordering.
//   - S_FT computation grows faster than S_NR's (O(N) vs O(lg²N)).
func TestSFTCostRelationships(t *testing.T) {
	snr, err := Measure(SNR, 4, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	sft, err := Measure(SFT, 4, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if sft.Makespan <= snr.Makespan {
		t.Errorf("S_FT makespan %d not above S_NR %d", sft.Makespan, snr.Makespan)
	}
	if sft.Bytes <= snr.Bytes {
		t.Errorf("S_FT bytes %d not above S_NR %d", sft.Bytes, snr.Bytes)
	}
}

func TestTable1FitsWell(t *testing.T) {
	res, err := Table1([]int{2, 3, 4, 5, 6}, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.SFTCommR2 < 0.98 || res.SFTCompR2 < 0.98 {
		t.Errorf("S_FT fit R² = %.4f/%.4f", res.SFTCommR2, res.SFTCompR2)
	}
	if res.SeqCommR2 < 0.98 || res.SeqCompR2 < 0.98 {
		t.Errorf("Sequential fit R² = %.4f/%.4f", res.SeqCommR2, res.SeqCompR2)
	}
	// Coefficients must be positive for the dominant terms.
	if res.SFT.Comp[0].Coef <= 0 {
		t.Errorf("S_FT comp coefficient %v not positive", res.SFT.Comp[0].Coef)
	}
	if res.Sequential.Comm[0].Coef <= 0 || res.Sequential.Comp[0].Coef <= 0 {
		t.Errorf("Sequential coefficients %v %v", res.Sequential.Comm, res.Sequential.Comp)
	}
	out := res.Render()
	for _, want := range []string{"S_FT", "Sequential", "paper", "R²"} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q:\n%s", want, out)
		}
	}
}

func TestFigure6ShapesHold(t *testing.T) {
	res, err := Figure6([]int{2, 3, 4, 5}, []int{2, 3, 4, 5}, 13)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.SFT.Makespan <= r.SNR.Makespan {
			t.Errorf("N=%d: S_FT %d not slower than S_NR %d", r.N, r.SFT.Makespan, r.SNR.Makespan)
		}
		if r.M != 1 {
			t.Errorf("N=%d: m = %d, want 1", r.N, r.M)
		}
	}
	// Paper: at these small sizes the host sort is competitive —
	// S_FT/host ratio must shrink as N grows (heading to a crossover).
	first := float64(res.Rows[0].SFT.Makespan) / float64(res.Rows[0].Host.Makespan)
	last := float64(res.Rows[len(res.Rows)-1].SFT.Makespan) / float64(res.Rows[len(res.Rows)-1].Host.Makespan)
	if last >= first {
		t.Errorf("S_FT/host ratio did not shrink: %.2f -> %.2f", first, last)
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 6") || !strings.Contains(out, "S_FT obs") {
		t.Errorf("Render:\n%s", out)
	}
}

func TestFigure7ProjectionsCross(t *testing.T) {
	fit, err := Table1([]int{2, 3, 4, 5, 6}, 17)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Figure7(fit, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if res.PaperCrossover == 0 {
		t.Error("paper models never cross")
	}
	if res.MeasuredCrossover == 0 {
		t.Error("measured models never cross: S_FT never beats host sorting")
	}
	out := res.Render()
	if !strings.Contains(out, "Crossover") {
		t.Errorf("Render:\n%s", out)
	}
}

func TestFigure8BlockComparison(t *testing.T) {
	res, err := Figure8([]int{2, 3, 4}, 32, 19)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.SFT.Makespan <= r.SNR.Makespan {
			t.Errorf("N=%d: block S_FT %d not slower than block S_NR %d",
				r.N, r.SFT.Makespan, r.SNR.Makespan)
		}
	}
	// Figure 8's point: with blocks, the FT/host ratio shrinks with N.
	first := float64(res.Rows[0].SFT.Makespan) / float64(res.Rows[0].Host.Makespan)
	last := float64(res.Rows[2].SFT.Makespan) / float64(res.Rows[2].Host.Makespan)
	if last >= first {
		t.Errorf("block FT/host ratio did not shrink: %.2f -> %.2f", first, last)
	}
	out := res.Render()
	if !strings.Contains(out, "Figure 8") {
		t.Errorf("Render:\n%s", out)
	}
}

func TestFigure8ProjectionBeatsHostEarly(t *testing.T) {
	res, err := Figure8([]int{2, 3, 4}, 32, 19)
	if err != nil {
		t.Fatal(err)
	}
	proj, err := Figure8Projection(res, 2, 12)
	if err != nil {
		t.Fatal(err)
	}
	if proj.MeasuredCrossover == 0 {
		t.Fatal("block S_FT never beats host in projection")
	}
	// With blocks the crossover is at (or very near) the smallest cube.
	if proj.MeasuredCrossover > 16 {
		t.Errorf("block crossover at N=%d, expected <= 16", proj.MeasuredCrossover)
	}
	if proj.PaperCrossover == 0 {
		t.Error("paper block models never cross")
	}
	if !strings.Contains(proj.Render(), "Crossover") {
		t.Error("projection Render missing crossover line")
	}
}

func TestFigure8ProjectionNeedsThreeRows(t *testing.T) {
	res, err := Figure8([]int{2, 3}, 8, 19)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Figure8Projection(res, 2, 10); err == nil {
		t.Error("two rows: want error")
	}
}
