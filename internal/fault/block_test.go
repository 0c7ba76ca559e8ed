package fault

import (
	"math/rand"
	"testing"
)

// blockWorkload returns the keys of a dim-cube holding m keys per
// node, flat in node order.
func blockWorkload(dim, m int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, (1<<uint(dim))*m)
	for i := range keys {
		keys[i] = int64(rng.Intn(200) - 100)
	}
	return keys
}

// The predicates scale by m (paper, Section 5): with blocks of keys
// per node, the strategy × node sweep must still show zero
// silent-wrong outcomes.
func TestBlockFTCoverageNoSilentWrong(t *testing.T) {
	keys := blockWorkload(3, 4, 55)
	strategies := []Strategy{KeyLie, SplitLie, ViewLie, WrongCompare, Silence, MaskInflation}
	results, err := Coverage(3, keys, 4, strategies, 7777, faultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(results)
	if sum.SilentWrong != 0 {
		for _, r := range results {
			if r.Verdict == SilentWrong {
				t.Errorf("SILENT WRONG: node %d strategy %v", r.Spec.Node, r.Spec.Strategy)
			}
		}
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Total != len(strategies)*8 {
		t.Errorf("total = %d", sum.Total)
	}
	if sum.Detected < sum.Total*3/4 {
		t.Errorf("only %d/%d detected", sum.Detected, sum.Total)
	}
}

func TestInjectBlockFTValidation(t *testing.T) {
	good := Spec{Node: 0, Strategy: KeyLie, ActivateStage: 1}
	if _, err := InjectSFT(2, []int64{1}, 1, good, faultTimeout); err == nil {
		t.Error("wrong block count: want error")
	}
	bad := Spec{Node: 0, Strategy: KeyLie, ActivateStage: 0}
	if _, err := InjectSFT(2, blockWorkload(2, 2, 1), 2, bad, faultTimeout); err == nil {
		t.Error("activate stage 0: want error")
	}
}

func TestInjectBlockFTHonestIsClean(t *testing.T) {
	// A spec that never activates (stage beyond the run) behaves as an
	// honest run: correct despite "fault".
	keys := blockWorkload(2, 3, 9)
	spec := Spec{Node: 1, Strategy: KeyLie, ActivateStage: 99, LieValue: 1}
	r, err := InjectSFT(2, keys, 3, spec, faultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != CorrectDespiteFault {
		t.Errorf("verdict = %v", r.Verdict)
	}
}
