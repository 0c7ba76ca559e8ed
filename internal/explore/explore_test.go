package explore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/simnet"
)

// TestExhaustiveDim1 runs the full single-fault sweep on the 1-cube:
// every schedule of every case must uphold its invariant, so the sweep
// returns no violations.
func TestExhaustiveDim1(t *testing.T) {
	res, err := Run(Config{Dim: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		for _, v := range res.Violations {
			t.Errorf("violation: case %s broke %s: %s", v.Case, v.Invariant, v.Detail)
		}
	}
	if want := len(fault.SingleFaultCases(1)); len(res.Cases) != want {
		t.Fatalf("swept %d cases, menu has %d", len(res.Cases), want)
	}
	for _, cs := range res.Cases {
		if cs.Branches < 1 {
			t.Errorf("case %s executed %d branches", cs.Case, cs.Branches)
		}
		if cs.Truncated {
			t.Errorf("case %s truncated without a cap", cs.Case)
		}
	}
	if res.Branches < len(res.Cases) {
		t.Errorf("total branches %d < cases %d", res.Branches, len(res.Cases))
	}
}

// TestExhaustiveDim2Totals pins the full dim-2 sweep's totals: every
// interleaving of every single-fault case on the 2-cube, 97 cases and
// 467 branches, none unverified and unescalated. A change to the
// protocol, its evidence or the scheduler that alters which
// interleavings are distinguishable moves the branch count; it must
// then be re-pinned on purpose.
func TestExhaustiveDim2Totals(t *testing.T) {
	res, err := Run(Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: case %s broke %s: %s", v.Case, v.Invariant, v.Detail)
	}
	if len(res.Cases) != 97 || res.Branches != 467 {
		t.Errorf("dim-2 sweep: %d branches across %d cases, want 467 across 97", res.Branches, len(res.Cases))
	}
}

// keyLieCase is the canonical detected dim-2 case used across tests:
// a key lie at node 1 from stage 1, caught by honest partners.
func keyLieCase() fault.Case {
	return fault.Case{
		Name:  "msg/key-lie/n1/s1",
		Class: fault.ClassMessage,
		Msg:   &fault.Spec{Node: 1, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 1 << 20},
	}
}

// memStuckCase corrupts node 0's resident key before the final
// verification round — the case whose detection the WeakenChecks hook
// turns into silent corruption.
func memStuckCase() fault.Case {
	return fault.Case{
		Name:  "mem/mem-stuck/n0",
		Class: fault.ClassMemory,
		Mem:   &fault.MemSpec{Node: 0, Mode: fault.MemStuck, Rate: 1, Seed: 42, ActivateStage: 1, StuckValue: -7},
	}
}

// TestFaultedBranchingDim2 checks that a detected dim-2 case actually
// branches: the honest detectors' ERROR reports race into the host
// mailbox, and the explorer enumerates every merge order (k detectors
// yield k! interleavings, all verified-or-escalated).
func TestFaultedBranchingDim2(t *testing.T) {
	res, err := Run(Config{Dim: 2, Cases: []fault.Case{keyLieCase()}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("violations on a healthy case: %+v", res.Violations[0])
	}
	cs := res.Cases[0]
	if cs.Branches < 2 {
		t.Fatalf("detected case explored %d branches; host-merge races should branch", cs.Branches)
	}
	if cs.Decisions == 0 {
		t.Fatalf("detected case recorded no decisions")
	}
	if cs.MaxDepth == 0 {
		t.Fatalf("max depth 0 with %d decisions", cs.Decisions)
	}
}

// TestMaxBranchesTruncates checks the branch cap marks the case
// truncated instead of looping.
func TestMaxBranchesTruncates(t *testing.T) {
	res, err := Run(Config{Dim: 2, Cases: []fault.Case{keyLieCase()}, MaxBranches: 1})
	if err != nil {
		t.Fatal(err)
	}
	cs := res.Cases[0]
	if cs.Branches != 1 || !cs.Truncated {
		t.Fatalf("cap 1: branches=%d truncated=%v", cs.Branches, cs.Truncated)
	}
}

// TestWeakenedChecksCounterexample is the acceptance demo: with every
// node's executable assertions disabled (the test-only WeakenChecks
// hook), a memory fault that S_FT normally detects becomes silent
// corruption, and the explorer produces a shrunk, replayable
// counterexample for it.
func TestWeakenedChecksCounterexample(t *testing.T) {
	res, err := Run(Config{Dim: 1, Cases: []fault.Case{memStuckCase()}, WeakenChecks: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 1 {
		t.Fatalf("want 1 violation, got %d", len(res.Violations))
	}
	v := res.Violations[0]
	if v.Invariant != InvVerifiedOrEscalated {
		t.Fatalf("violation invariant %q", v.Invariant)
	}
	if v.Diag.Verdict != fault.SilentWrong {
		t.Fatalf("diagnosis verdict %v", v.Diag.Verdict)
	}
	if len(v.Schedule) > len(v.Full) {
		t.Fatalf("shrunk schedule (%d) longer than original (%d)", len(v.Schedule), len(v.Full))
	}

	// The counterexample replays: the reproducer artifact round-trips
	// through JSON and the replay breaks the same invariant with the
	// same diagnosis.
	rep := v.Reproducer(1, true)
	buf, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReproducer(buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, back) {
		t.Fatalf("reproducer did not round-trip:\n%+v\n%+v", rep, back)
	}
	diag, _, err := Replay(back)
	if err != nil {
		t.Fatal(err)
	}
	if diag != v.Diag {
		t.Fatalf("replay diagnosis %+v, counterexample records %+v", diag, v.Diag)
	}

	// Local minimality: removing any single remaining directive makes
	// the replay pass (vacuously true for an already-empty schedule).
	for i := range v.Schedule {
		cand := append(append([]simnet.Action(nil), v.Schedule[:i]...), v.Schedule[i+1:]...)
		cr := Reproducer{Dim: 1, Case: v.Placement, WeakenChecks: true, Invariant: v.Invariant, Schedule: cand}
		if _, _, err := Replay(cr); err == nil {
			t.Fatalf("schedule not 1-minimal: removing directive %d still breaks %s", i, v.Invariant)
		}
	}
}

// TestEnumSchedulerConformance extends the simnet conformance battery
// to the explorer's enumerating scheduler: an honest controlled run
// under enumSched produces the same sorted output and the same
// per-node virtual clocks as the free-running network — delivery
// mediation must not perturb virtual time.
func TestEnumSchedulerConformance(t *testing.T) {
	run := func(sched simnet.Scheduler) *core.Outcome {
		nw, err := simnet.New(simnet.Config{Dim: 2, Sched: sched})
		if err != nil {
			t.Fatal(err)
		}
		oc, err := core.Run(nw, Workload(2))
		if err != nil {
			t.Fatal(err)
		}
		return oc
	}
	free := run(nil)
	enum := run(&enumSched{})
	if !reflect.DeepEqual(free.Sorted, enum.Sorted) {
		t.Fatalf("sorted: free %v, enum %v", free.Sorted, enum.Sorted)
	}
	for id := range free.Result.Nodes {
		f, e := free.Result.Nodes[id], enum.Result.Nodes[id]
		if f.Clock != e.Clock || f.CommTicks != e.CommTicks || f.CompTicks != e.CompTicks {
			t.Errorf("node %d vticks: free (%d,%d,%d), enum (%d,%d,%d)", id,
				f.Clock, f.CommTicks, f.CompTicks, e.Clock, e.CommTicks, e.CompTicks)
		}
	}
}

// TestRecordedScheduleReplaysIdentically checks the Record→Replay loop
// on a detected case: replaying a random recorded schedule reproduces
// the identical diagnosis.
func TestRecordedScheduleReplaysIdentically(t *testing.T) {
	cfg := Config{Dim: 2}
	c := keyLieCase()
	for _, seed := range []int64{1, 7, 1989} {
		sched, diag, _, err := Record(cfg, c, simnet.NewRandom(seed))
		if err != nil {
			t.Fatal(err)
		}
		if diag.Verdict != fault.Detected {
			t.Fatalf("seed %d: verdict %v", seed, diag.Verdict)
		}
		// The reproducer records no invariant, so a replay that breaks
		// one is an error.
		got, _, err := Replay(Reproducer{Dim: 2, Case: c, Schedule: sched})
		if err != nil {
			t.Fatal(err)
		}
		if got != diag {
			t.Fatalf("seed %d: replay diagnosis %+v, recorded %+v", seed, got, diag)
		}
	}
}

// TestReplayRejectsNonReproducing: a reproducer whose schedule no
// longer breaks its recorded invariant is an error, not a silent pass.
func TestReplayRejectsNonReproducing(t *testing.T) {
	rep := Reproducer{
		Dim:       1,
		Case:      fault.Case{Name: "none"},
		Invariant: InvVerifiedOrEscalated,
	}
	if _, _, err := Replay(rep); err == nil {
		t.Fatal("non-reproducing artifact replayed without error")
	}
}

// TestWriteCounterexample checks the artifact files land and parse.
func TestWriteCounterexample(t *testing.T) {
	dir := t.TempDir()
	c := keyLieCase()
	sched, _, dump, err := Record(Config{Dim: 2}, c, simnet.NewRandom(1))
	if err != nil {
		t.Fatal(err)
	}
	rep := Reproducer{Dim: 2, Case: c, Schedule: sched}
	if err := WriteCounterexample(dir, "ce-test", rep, dump); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(filepath.Join(dir, "ce-test.json"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReproducer(buf)
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

// TestResultJSON keeps the sweep result serializable for cmd/explore's
// -json artifact.
func TestResultJSON(t *testing.T) {
	res, err := Run(Config{Dim: 1, Cases: []fault.Case{{Name: "none"}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := json.Marshal(res); err != nil {
		t.Fatal(err)
	}
}

// TestNamedOnlyCaseIsFaultFree pins that the zero Case is the
// fault-free case: a case carrying only a name names no faulty node,
// and the explorer runs it honest, undetected and sorted, instead of
// crashing node 0.
func TestNamedOnlyCaseIsFaultFree(t *testing.T) {
	c := fault.Case{Name: "zero"}
	if got := c.Faulty(); got != -1 {
		t.Fatalf("Faulty() = %d, want -1", got)
	}
	_, diag, _, err := Record(Config{Dim: 1}, c, &enumSched{})
	if err != nil {
		t.Fatal(err)
	}
	if diag.Verdict != fault.CorrectDespiteFault {
		t.Fatalf("verdict %v, want an undetected sorted run", diag.Verdict)
	}
}
