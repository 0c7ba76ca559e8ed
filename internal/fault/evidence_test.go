package fault

import (
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/diagnose"
)

// TestEvidenceOrderRunsForwardWithinAStage pins the one evidence order
// on hand-built evidence: stage ascending, then iteration descending
// (a stage's iterations count down, and its boundary checks report
// iteration -1 after them), then node. EarliestEvidence, SortEvidence
// and diagnose.Rank all read it.
func TestEvidenceOrderRunsForwardWithinAStage(t *testing.T) {
	errs := []core.HostError{
		{Node: 3, Stage: 1, Iter: -1, Predicate: "progress", Kind: core.KindShape, Accused: -1},
		{Node: 6, Stage: 1, Iter: 0, Predicate: "protocol", Kind: core.KindAbsence, Accused: 7},
		{Node: 2, Stage: 2, Iter: 2, Predicate: "consistency", Kind: core.KindValue, Accused: 3},
		{Node: 7, Stage: 1, Iter: 1, Predicate: "protocol", Kind: core.KindValue, Accused: 5},
		{Node: 4, Stage: 1, Iter: 0, Predicate: "protocol", Kind: core.KindAbsence, Accused: 6},
	}
	he, ok := EarliestEvidence(errs)
	if !ok || he.Node != 7 {
		t.Fatalf("earliest evidence %+v, want node 7's at (1, 1)", he)
	}
	sorted := append([]core.HostError(nil), errs...)
	SortEvidence(sorted)
	var order []int
	for _, e := range sorted {
		order = append(order, e.Node)
	}
	if want := []int{7, 4, 6, 3, 2}; !slices.Equal(order, want) {
		t.Errorf("sorted evidence by node %v, want %v", order, want)
	}
	ranked := diagnose.Rank([]core.HostError{
		{Node: 4, Stage: 1, Iter: 0, Kind: core.KindValue, Accused: 5},
		{Node: 7, Stage: 1, Iter: 1, Kind: core.KindValue, Accused: 5},
	})
	if len(ranked) != 1 || ranked[0].EarliestStage != 1 || ranked[0].EarliestIter != 1 {
		t.Errorf("Rank %+v, want node 5 first accused at (1, 1)", ranked)
	}
}

// TestClassifyAccusesTheLiarNotTheCascade runs the case that showed
// the order running backwards: dim 3, one key per node, a key-lie at
// node 5 from stage 1. Node 7 catches 5's wrong merge-split reply at
// (stage 1, iteration 1); node 6 later reports at (1, 0) that 7, which
// fail-stopped, went silent. The earlier evidence is node 7's, so
// Classify must accuse the liar with node 7's value evidence and dump.
func TestClassifyAccusesTheLiarNotTheCascade(t *testing.T) {
	s := Set{{Name: "key-lie/n5", Class: ClassMessage,
		Msg: &Spec{Node: 5, Strategy: KeyLie, ActivateStage: 1, LieValue: 999}}}
	r, err := Inject(3, paperKeys(), 1, s, faultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != Detected {
		t.Fatalf("verdict %v, want detected", r.Verdict)
	}
	if r.Accused != 5 || r.Detector == "absence" || r.Stage != 1 || r.Iter != 1 {
		t.Errorf("Classify: accused %d by %q at (%d, %d); want node 5 accused by value evidence at (1, 1)",
			r.Accused, r.Detector, r.Stage, r.Iter)
	}
	if r.Forensic == nil || r.Forensic.Accuser != 7 {
		t.Errorf("forensic dump %+v, want node 7's", r.Forensic)
	}
}
