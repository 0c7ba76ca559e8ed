package diagnose

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/simnet"
)

func TestRankPrefersDirectEvidence(t *testing.T) {
	errs := []core.HostError{
		{Node: 0, Stage: 2, Iter: 0, Predicate: "protocol", Kind: core.KindAbsence, Accused: 7,
			Detail: "receive from 7: expected message absent (timeout)"},
		{Node: 1, Stage: 1, Iter: 1, Predicate: "consistency", Kind: core.KindValue, Accused: 5,
			Detail: "slot 4: held copy 10 disagrees with relayed copy 99"},
		{Node: 2, Stage: 2, Iter: 1, Predicate: "protocol", Kind: core.KindValue, Accused: 5,
			Detail: "misordered reply"},
	}
	ranked := Rank(errs)
	if len(ranked) != 2 {
		t.Fatalf("ranked = %+v", ranked)
	}
	if ranked[0].Node != 5 || ranked[0].DirectVotes != 2 {
		t.Fatalf("prime = %+v", ranked[0])
	}
	if ranked[1].Node != 7 || ranked[1].AbsenceVotes != 1 {
		t.Fatalf("second = %+v", ranked[1])
	}
	prime, ok := Prime(errs)
	if !ok || prime.Node != 5 {
		t.Fatalf("Prime = %+v ok=%v", prime, ok)
	}
}

func TestRankUnattributed(t *testing.T) {
	errs := []core.HostError{
		{Node: 0, Stage: 2, Predicate: "feasibility", Accused: -1, Detail: "value 3 missing"},
	}
	if got := Rank(errs); len(got) != 0 {
		t.Fatalf("Rank = %+v", got)
	}
	if _, ok := Prime(errs); ok {
		t.Fatal("Prime found a suspect in unattributed evidence")
	}
	if !strings.Contains(Report(errs), "no attributable evidence") {
		t.Error("Report wording")
	}
}

func TestReportLists(t *testing.T) {
	errs := []core.HostError{
		{Node: 1, Stage: 1, Iter: 1, Predicate: "consistency", Accused: 3, Detail: "copies differ"},
	}
	out := Report(errs)
	if !strings.Contains(out, "node 3") || !strings.Contains(out, "1 direct") {
		t.Errorf("Report = %q", out)
	}
}

// End-to-end accuracy: across the full single-fault strategy × node
// sweep, whenever the run is detected *with attributable evidence*,
// the prime suspect must be the actually faulty node in the large
// majority of runs (lies propagate, so occasionally a relay of the
// lie is blamed first — that is inherent, not a bug). The sweep runs
// at one key per node (S_FT) and at two (the block sort), with the
// same thresholds.
func TestDiagnosisAccuracyOverCoverageSweep(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5, 31, -6, 14, 0, 22, -9, 17, 1}
	strategies := []fault.Strategy{
		fault.KeyLie, fault.SplitLie, fault.ViewLie, fault.WrongCompare, fault.MaskInflation,
	}
	for _, m := range []int{1, 2} {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			total, attributed, correct := 0, 0, 0
			for _, st := range strategies {
				for id := 0; id < n; id++ {
					nw, err := simnet.New(simnet.Config{Dim: dim})
					if err != nil {
						t.Fatal(err)
					}
					spec := fault.Spec{Node: id, Strategy: st, ActivateStage: 1, LieValue: 999}
					opts := make([]core.Options, n)
					opts[id] = core.Options{SkipChecks: true, Tamper: spec.Tamper()}
					oc, err := core.RunBlocks(nw, keys[:n*m], m, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !oc.Detected() {
						continue
					}
					total++
					prime, ok := Prime(oc.HostErrors)
					if !ok {
						continue
					}
					attributed++
					if prime.Node == id {
						correct++
					}
				}
			}
			if total == 0 {
				t.Fatal("no detected runs to diagnose")
			}
			if attributed < total*3/4 {
				t.Errorf("only %d/%d detected runs had attributable evidence", attributed, total)
			}
			accuracy := float64(correct) / float64(attributed)
			t.Logf("diagnosis: %d detected, %d attributed, %d correct (%.0f%%)", total, attributed, correct, accuracy*100)
			if accuracy < 0.8 {
				t.Errorf("diagnosis accuracy %.2f below 0.8", accuracy)
			}
		})
	}
}

// The silence strategy produces absence-only evidence; diagnosis must
// still name the silent node.
func TestDiagnosisOfSilentNode(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	silent := 5
	nw, err := simnet.New(simnet.Config{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	spec := fault.Spec{Node: silent, Strategy: fault.Silence, ActivateStage: 1}
	opts := make([]core.Options, n)
	opts[silent] = core.Options{SkipChecks: true, Tamper: spec.Tamper()}
	oc, err := core.RunWithOptions(nw, keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatal("silence undetected")
	}
	prime, ok := Prime(oc.HostErrors)
	if !ok {
		t.Fatalf("no suspects from %+v", oc.HostErrors)
	}
	if prime.Node != silent {
		t.Errorf("prime suspect = %+v, want node %d (errors: %+v)", prime, silent, oc.HostErrors)
	}
}
