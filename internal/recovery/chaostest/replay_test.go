package chaostest

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/explore"
	"repro/internal/fault"
	"repro/internal/simnet"
)

// replayCases are detected single-fault placements spanning three
// adversary classes, used to exercise the explorer→chaostest bridge.
func replayCases() []fault.Case {
	return []fault.Case{
		{Name: "msg/key-lie/n1/s1", Class: fault.ClassMessage,
			Msg: &fault.Spec{Node: 1, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 1 << 20}},
		{Name: "msg/split-lie/n2/s1", Class: fault.ClassMessage,
			Msg: &fault.Spec{Node: 2, Strategy: fault.SplitLie, ActivateStage: 1, LieValue: 1 << 20}},
		{Name: "mem/mem-stuck/n3", Class: fault.ClassMemory,
			Mem: &fault.MemSpec{Node: 3, Mode: fault.MemStuck, Rate: 1, Seed: 42, ActivateStage: 1, StuckValue: -7}},
	}
}

// TestExplorerScheduleReplaysThroughChaostest is the bridge property:
// recording a schedule in the explorer and replaying it through
// chaostest.ReplayCounterexample reproduces the identical diagnosis —
// same verdict, same accused node, same earliest-evidence (stage,
// iter), and same forensic first-divergence locator. The schedules are
// recorded under seeded random controlled scheduling so the host-merge
// races genuinely vary across seeds.
func TestExplorerScheduleReplaysThroughChaostest(t *testing.T) {
	for _, c := range replayCases() {
		for _, seed := range []int64{1, 1989} {
			sched, want, _, err := explore.Record(explore.Config{Dim: 2}, c, simnet.NewRandom(seed))
			if err != nil {
				t.Fatalf("%s seed %d: record: %v", c.Name, seed, err)
			}
			if want.Verdict != fault.Detected {
				t.Fatalf("%s seed %d: recorded verdict %v, case menu promises detection",
					c.Name, seed, want.Verdict)
			}
			rep := explore.Reproducer{Dim: 2, Case: c, Schedule: sched}
			got, _, err := ReplayCounterexample(rep)
			if err != nil {
				t.Fatalf("%s seed %d: replay: %v", c.Name, seed, err)
			}
			if got.Verdict != want.Verdict {
				t.Errorf("%s seed %d: verdict %v, recorded %v", c.Name, seed, got.Verdict, want.Verdict)
			}
			if got.Accused != want.Accused {
				t.Errorf("%s seed %d: accused %d, recorded %d", c.Name, seed, got.Accused, want.Accused)
			}
			if got.Stage != want.Stage || got.Iter != want.Iter {
				t.Errorf("%s seed %d: evidence at (%d,%d), recorded (%d,%d)",
					c.Name, seed, got.Stage, got.Iter, want.Stage, want.Iter)
			}
			if got.DivOK != want.DivOK || got.DivStage != want.DivStage || got.DivIter != want.DivIter {
				t.Errorf("%s seed %d: first divergence (%d,%d,%v), recorded (%d,%d,%v)",
					c.Name, seed, got.DivStage, got.DivIter, got.DivOK,
					want.DivStage, want.DivIter, want.DivOK)
			}
		}
	}
}

// TestReplayCounterexampleRejectsNonReproducing: an artifact whose
// schedule no longer breaks its recorded invariant is an error, not a
// silent pass.
func TestReplayCounterexampleRejectsNonReproducing(t *testing.T) {
	rep := explore.Reproducer{
		Dim:       1,
		Case:      fault.Case{Name: "none"},
		Invariant: explore.InvVerifiedOrEscalated,
	}
	if _, _, err := ReplayCounterexample(rep); err == nil {
		t.Fatal("non-reproducing artifact replayed without error")
	}
}

// TestWriteCounterexample checks the artifact files land and parse.
func TestWriteCounterexample(t *testing.T) {
	dir := t.TempDir()
	c := replayCases()[0]
	sched, _, dump, err := explore.Record(explore.Config{Dim: 2}, c, simnet.NewRandom(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := explore.Reproducer{Dim: 2, Case: c, Schedule: sched}
	if err := WriteCounterexample(dir, "ce-test", rep, dump); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "ce-test.json"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := explore.ParseReproducer(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Schedule) != len(sched) || back.Dim != 2 {
		t.Fatalf("artifact round-trip: %d directives dim %d, wrote %d dim 2", len(back.Schedule), back.Dim, len(sched))
	}
	if dump != nil {
		if _, err := os.Stat(filepath.Join(dir, "ce-test-forensic.json")); err != nil {
			t.Fatalf("forensic artifact: %v", err)
		}
	}
}
