package diagnose

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/simnet"
)

// Two simultaneous culprits with direct evidence, plus the absence
// cascade an honest fail-stopped node always triggers: the ranking
// must not credit the honest node above both culprits.
func TestRankTwoSimultaneousFaults(t *testing.T) {
	errs := []core.HostError{
		// Culprit 3 caught red-handed at stage 1.
		{Node: 1, Stage: 1, Iter: 1, Predicate: "consistency", Kind: core.KindValue, Accused: 3,
			Detail: "copies differ"},
		// Culprit 6 caught at stage 2.
		{Node: 4, Stage: 2, Iter: 2, Predicate: "protocol", Kind: core.KindValue, Accused: 6,
			Detail: "misordered reply"},
		// Honest node 1 fail-stopped after detecting; its silence is
		// blamed on it by two stalled partners.
		{Node: 0, Stage: 2, Iter: 0, Predicate: "protocol", Kind: core.KindAbsence, Accused: 1,
			Detail: "receive from 1: timeout"},
		{Node: 5, Stage: 2, Iter: 0, Predicate: "protocol", Kind: core.KindAbsence, Accused: 1,
			Detail: "receive from 1: timeout"},
	}
	ranked := Rank(errs)
	if len(ranked) != 3 {
		t.Fatalf("ranked = %+v", ranked)
	}
	// Direct evidence outranks the honest node's absence cascade no
	// matter the vote counts; earliest accusation orders the culprits.
	if ranked[0].Node != 3 || ranked[1].Node != 6 || ranked[2].Node != 1 {
		t.Fatalf("ranking order = [%d %d %d], want [3 6 1]",
			ranked[0].Node, ranked[1].Node, ranked[2].Node)
	}
}

// End-to-end two-fault runs over the block sort: detection is no
// longer guaranteed by Theorem 3 (two Byzantine processors can
// conspire), but for independent strategies the predicates still fire,
// and the ranking must place one of the two culprits first — an honest
// node must never outrank both.
func TestRankTwoFaultRuns(t *testing.T) {
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5, 31, -6, 14, 0, 22, -9, 17, 1}
	combos := []struct{ a, b fault.Strategy }{
		{fault.KeyLie, fault.KeyLie},
		{fault.KeyLie, fault.SplitLie},
		{fault.SplitLie, fault.ViewLie},
		{fault.WrongCompare, fault.KeyLie},
		{fault.Silence, fault.KeyLie},
	}
	pairs := [][2]int{{1, 6}, {2, 5}, {3, 4}, {0, 7}}
	for _, c := range combos {
		for _, p := range pairs {
			c, p := c, p
			t.Run(fmt.Sprintf("%v@%d+%v@%d", c.a, p[0], c.b, p[1]), func(t *testing.T) {
				t.Parallel()
				nw, err := simnet.New(simnet.Config{Dim: 3})
				if err != nil {
					t.Fatal(err)
				}
				sa := fault.Spec{Node: p[0], Strategy: c.a, ActivateStage: 1, LieValue: 999}
				sb := fault.Spec{Node: p[1], Strategy: c.b, ActivateStage: 1, LieValue: 777}
				opts := make([]core.Options, 8)
				opts[p[0]] = core.Options{SkipChecks: true, Tamper: sa.Tamper()}
				opts[p[1]] = core.Options{SkipChecks: true, Tamper: sb.Tamper()}
				oc, err := core.RunBlocks(nw, keys, 2, opts)
				if err != nil {
					t.Fatal(err)
				}
				if !oc.Detected() {
					t.Fatalf("double fault undetected")
				}
				ranked := Rank(oc.HostErrors)
				if len(ranked) == 0 {
					t.Fatalf("no suspects from %+v", oc.HostErrors)
				}
				if prime := ranked[0].Node; prime != p[0] && prime != p[1] {
					t.Errorf("prime suspect %d is honest; culprits were %v (ranking %+v)",
						prime, p, ranked)
				}
			})
		}
	}
}
