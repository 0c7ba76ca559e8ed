package chaostest

import (
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/simnet"
)

// TestExplorerScheduleReplaysThroughChaostest runs the explorer's
// Record→Replay loop under the chaos seed matrix (CHAOS_SEEDS), on
// detected single-fault placements from three adversary classes: a
// schedule recorded under seeded random controlled scheduling replays
// to the identical diagnosis — same verdict, detector, predicate,
// accused node and earliest-evidence (stage, iter). Seed 1 always runs
// beside the matrix, so CI's seeds vary the host-merge races on top of
// a fixed baseline.
func TestExplorerScheduleReplaysThroughChaostest(t *testing.T) {
	cases := []fault.Case{
		{Name: "msg/key-lie/n1/s1", Class: fault.ClassMessage,
			Msg: &fault.Spec{Node: 1, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 1 << 20}},
		{Name: "msg/split-lie/n2/s1", Class: fault.ClassMessage,
			Msg: &fault.Spec{Node: 2, Strategy: fault.SplitLie, ActivateStage: 1, LieValue: 1 << 20}},
		{Name: "mem/mem-stuck/n3", Class: fault.ClassMemory,
			Mem: &fault.MemSpec{Node: 3, Mode: fault.MemStuck, Rate: 1, Seed: 42, ActivateStage: 1, StuckValue: -7}},
	}
	seeds := append([]int64{1}, seedMatrix(t)...)
	for _, c := range cases {
		for _, seed := range seeds {
			sched, want, _, err := explore.Record(explore.Config{Dim: 2}, c, simnet.NewRandom(seed))
			if err != nil {
				t.Fatalf("%s seed %d: record: %v", c.Name, seed, err)
			}
			if want.Verdict != fault.Detected {
				t.Fatalf("%s seed %d: recorded verdict %v, case menu promises detection",
					c.Name, seed, want.Verdict)
			}
			// The reproducer records no invariant, so a replay that
			// breaks one is an error.
			got, _, err := explore.Replay(explore.Reproducer{Dim: 2, Case: c, Schedule: sched})
			if err != nil {
				t.Fatalf("%s seed %d: replay: %v", c.Name, seed, err)
			}
			if got != want {
				t.Errorf("%s seed %d: replay diagnosis %+v, recorded %+v", c.Name, seed, got, want)
			}
		}
	}
}
