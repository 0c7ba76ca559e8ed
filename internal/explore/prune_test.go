package explore

import (
	"testing"

	"repro/internal/fault"
)

// TestStateHashPruningDim3 exercises canonical state-hash pruning
// where it first has room to fire: a detected dim-3 case has up to 7
// honest detectors racing ERROR reports into the host mailbox, and the
// commutative host-drain fold makes delivery order below two drained
// sets {A,B} and {B,A} provably equivalent. Without pruning the
// explorer would walk all 7! = 5040 drain permutations; with it the
// walk collapses by more than an order of magnitude while still
// checking every inequivalent interleaving (zero violations). At
// dim <= 2 at most 3 writers race, which never re-reaches an expanded
// state — the per-case pruned counts there are legitimately zero.
func TestStateHashPruningDim3(t *testing.T) {
	c := fault.Case{
		Name:  "msg/key-lie/n1/s1",
		Class: fault.ClassMessage,
		Msg:   &fault.Spec{Node: 1, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 1 << 20},
	}
	res, err := Run(Config{Dim: 3, Cases: []fault.Case{c}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("dim-3 case violated: %+v", res.Violations[0])
	}
	cs := res.Cases[0]
	if cs.Pruned == 0 {
		t.Fatalf("no decision subtrees pruned across %d branches; state hashing is dead", cs.Branches)
	}
	if cs.Branches >= 5040 {
		t.Fatalf("%d branches: pruning failed to collapse the 7! drain permutations", cs.Branches)
	}
	if cs.Truncated {
		t.Fatal("sweep truncated without a cap")
	}
}
