package fault

import (
	"testing"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/sortnr"
	"repro/internal/wire"
)

func paperKeys() []int64 { return []int64{10, 8, 3, 9, 4, 2, 7, 5} }

func TestSpecValidate(t *testing.T) {
	tests := []struct {
		name    string
		spec    Spec
		wantErr bool
	}{
		{"valid", Spec{Node: 1, Strategy: KeyLie, ActivateStage: 1}, false},
		{"node out of range", Spec{Node: 8, Strategy: KeyLie, ActivateStage: 1}, true},
		{"negative node", Spec{Node: -1, Strategy: KeyLie, ActivateStage: 1}, true},
		{"unknown strategy", Spec{Node: 0, Strategy: 99, ActivateStage: 1}, true},
		{"activates at stage 0", Spec{Node: 0, Strategy: KeyLie, ActivateStage: 0}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.spec.Validate(8)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Validate = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestStrategyString(t *testing.T) {
	if KeyLie.String() != "key-lie" || SplitLie.String() != "split-lie" {
		t.Error("strategy names wrong")
	}
	if Strategy(99).String() != "strategy(99)" {
		t.Error("unknown strategy name wrong")
	}
	if len(AllStrategies()) != 9 {
		t.Errorf("AllStrategies has %d entries", len(AllStrategies()))
	}
}

// Every strategy injected at every node of a dim-3 cube must be either
// detected or harmless — never silent-wrong. This is experiment E6.
func TestSFTCoverageNoSilentWrong(t *testing.T) {
	results, err := Coverage(3, paperKeys(), 1, AllStrategies(), 999)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(results)
	if sum.SilentWrong != 0 {
		for i, r := range results {
			if r.Verdict == SilentWrong {
				t.Errorf("SILENT WRONG: node %d strategy %v", i%8, AllStrategies()[i/8])
			}
		}
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Total != 9*8 {
		t.Errorf("total = %d, want 72", sum.Total)
	}
	// Value-corrupting strategies must overwhelmingly be *detected*,
	// not merely harmless.
	det := 0
	for _, r := range results {
		if r.Verdict == Detected {
			det++
		}
	}
	if det < sum.Total*3/4 {
		t.Errorf("only %d/%d detected", det, sum.Total)
	}
}

// The S_NR contrast: the same key-lie faults must corrupt silently in
// a majority of sites, demonstrating why the paradigm is needed.
func TestSNRContrastSilentlyWrong(t *testing.T) {
	silent := 0
	n := 8
	for id := 0; id < n; id++ {
		spec := Spec{Node: id, Strategy: KeyLie, ActivateStage: 1, LieValue: 999}
		r, err := InjectSNR(3, paperKeys(), spec)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict == SilentWrong {
			silent++
		}
	}
	if silent == 0 {
		t.Fatal("S_NR detected or survived every lie; contrast experiment broken")
	}
}

func TestInjectValidatesInputs(t *testing.T) {
	if _, err := Inject(3, []int64{1}, 1, Set{{Msg: &Spec{Node: 0, Strategy: KeyLie, ActivateStage: 1}}}); err == nil {
		t.Error("wrong key count: want error")
	}
	if _, err := Inject(3, paperKeys(), 1, Set{{Msg: &Spec{Node: 0, Strategy: KeyLie, ActivateStage: 0}}}); err == nil {
		t.Error("activate stage 0: want error")
	}
	if _, err := InjectSNR(3, []int64{1}, Spec{Node: 0, Strategy: KeyLie, ActivateStage: 1}); err == nil {
		t.Error("SNR wrong key count: want error")
	}
}

func TestVerdictString(t *testing.T) {
	if Detected.String() != "detected" || SilentWrong.String() != "SILENT-WRONG" ||
		CorrectDespiteFault.String() != "correct-despite-fault" {
		t.Error("verdict names wrong")
	}
	if Verdict(9).String() != "verdict(9)" {
		t.Error("unknown verdict name wrong")
	}
}

func TestStaleReplayDetected(t *testing.T) {
	spec := Spec{Node: 2, Strategy: StaleReplay, ActivateStage: 1}
	r, err := Inject(3, paperKeys(), 1, Set{{Msg: &spec}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Detected {
		t.Fatalf("stale replay verdict = %v", r.Verdict)
	}
}

func TestLinkCorruptDetectedBySFT(t *testing.T) {
	nw, err := simnet.New(simnet.Config{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallLinkFault(2, 3, NewLinkCorrupt(1, 4)); err != nil {
		t.Fatal(err)
	}
	oc, err := runSFTOn(nw, paperKeys())
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatal("corrupted link went undetected")
	}
}

func TestLinkDropDetectedAsAbsence(t *testing.T) {
	nw, err := simnet.New(simnet.Config{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallLinkFault(0, 1, &LinkDrop{Keep: 1}); err != nil {
		t.Fatal(err)
	}
	oc, err := runSFTOn(nw, paperKeys())
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatal("dropped link went undetected")
	}
}

func TestLinkDuplicateDetected(t *testing.T) {
	// A duplicated message desynchronizes the lockstep schedule: the
	// receiver sees a stale header at the next step.
	nw, err := simnet.New(simnet.Config{Dim: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallLinkFault(4, 5, LinkDuplicate{}); err != nil {
		t.Fatal(err)
	}
	oc, err := runSFTOn(nw, paperKeys())
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatal("duplicated link went undetected")
	}
}

func TestLinkFaultsAgainstSNRSilentOrStall(t *testing.T) {
	// S_NR under a corrupting link: either the run stalls (decode
	// failure surfaces as a node error) or the output silently
	// corrupts. It must never produce a *diagnosed predicate* —
	// there are none. This pins the asymmetry with S_FT.
	nw, err := simnet.New(simnet.Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallLinkFault(0, 1, NewLinkCorrupt(7, 2)); err != nil {
		t.Fatal(err)
	}
	keys := []int64{4, 3, 2, 1}
	out, res, err := sortnr.Run(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	_ = out
	_ = res // any outcome is acceptable except a panic; nothing to assert beyond completion
}

// A crashed node (fail-stop, never ran) must be detected via message
// absence at every position in the cube, and the earliest evidence
// must accuse it.
func TestCrashedNodeAlwaysDetected(t *testing.T) {
	for id := 0; id < 8; id++ {
		r, err := Inject(3, paperKeys(), 1, Set{{Crashed: &id}})
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != Detected || r.Detector != "absence" || r.Accused != id {
			t.Errorf("crashed node %d: verdict %v, detector %q, accused %d", id, r.Verdict, r.Detector, r.Accused)
		}
	}
	crashed := 0
	if _, err := Inject(3, []int64{1}, 1, Set{{Crashed: &crashed}}); err == nil {
		t.Error("wrong key count: want error")
	}
	crashed = 9
	if _, err := Inject(3, paperKeys(), 1, Set{{Crashed: &crashed}}); err == nil {
		t.Error("bad node: want error")
	}
}

func TestTamperHooksPassUnrelatedMessages(t *testing.T) {
	spec := Spec{Node: 0, Strategy: KeyLie, ActivateStage: 2, LieValue: 7}
	h := spec.Tamper()
	m := &wire.Message{Kind: wire.KindFTExchange, Stage: 1}
	if got := h(m); got != m {
		t.Error("hook modified a pre-activation message")
	}
	verify := &wire.Message{Kind: wire.KindVerify, Stage: 3}
	if got := h(verify); got != verify {
		t.Error("key-lie hook modified a verify message")
	}
}

func runSFTOn(nw *simnet.Network, keys []int64) (interface{ Detected() bool }, error) {
	return core.Run(nw, keys)
}
