package diagnose_test

import (
	"errors"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/recovery"
)

// The accusation history across the attempts of one sort lives in
// recovery.Supervise: a fault is persistent once consecutive failed
// attempts name the same prime suspect, the head of Rank's list. These
// tests feed the supervisor evidence of each kind Rank weighs, so they
// pin that the streak follows Rank's prime suspect, not every accused
// node.

func value(node int) core.HostError {
	return core.HostError{Node: 0, Stage: 1, Iter: 0, Predicate: "consistency",
		Kind: core.KindValue, Accused: node, Detail: "copies differ"}
}

func absence(node int) core.HostError {
	return core.HostError{Node: 0, Stage: 1, Iter: 0, Predicate: "protocol",
		Kind: core.KindAbsence, Accused: node, Detail: "expected message absent (timeout)"}
}

func shape() core.HostError {
	return core.HostError{Node: 0, Stage: 1, Iter: -1, Predicate: "protocol",
		Kind: core.KindShape, Accused: -1, Detail: "not a permutation"}
}

// quarantines supervises a dim-3 sort with three spares whose failed
// attempts raise the given evidence, one list per attempt in logical
// labels, and returns the physical node quarantined after each failed
// attempt (recovery.NoNode for none). The attempt after the last
// verifies.
func quarantines(t *testing.T, evidence ...[]core.HostError) []int {
	t.Helper()
	rep, err := recovery.Supervise(3, func(p recovery.Plan) recovery.Outcome {
		if p.Attempt == len(evidence) {
			return recovery.Outcome{Cost: 1}
		}
		return recovery.Outcome{HostErrors: evidence[p.Attempt], Cost: 1, Err: errors.New("fault detected")}
	}, recovery.Policy{MaxAttempts: len(evidence) + 1, Spares: 3, Sleep: func(time.Duration) {}})
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for _, a := range rep.Attempts[:len(rep.Attempts)-1] {
		got = append(got, a.Quarantined)
	}
	return got
}

func ev(hes ...core.HostError) []core.HostError { return hes }

func TestHistoryStreaks(t *testing.T) {
	const none = recovery.NoNode
	if got := quarantines(t, ev(value(5))); !slices.Equal(got, []int{none}) {
		t.Fatalf("single accusation quarantined %v", got)
	}
	if got := quarantines(t, ev(value(5)), ev(value(5))); !slices.Equal(got, []int{none, 5}) {
		t.Fatalf("two accusations of 5 quarantined %v, want [-1 5]", got)
	}
}

// Node 5 is accused on both attempts, but on the second its absence
// evidence ranks below the direct evidence against 3, so the prime
// suspect changes and the streak restarts.
func TestHistoryStreakBrokenByOtherSuspect(t *testing.T) {
	const none = recovery.NoNode
	if got := quarantines(t, ev(value(5)), ev(value(3), absence(5))); !slices.Equal(got, []int{none, none}) {
		t.Fatalf("alternating prime suspects quarantined %v", got)
	}
	if got := quarantines(t, ev(value(5)), ev(value(3), absence(5)), ev(value(3))); !slices.Equal(got, []int{none, none, 3}) {
		t.Fatalf("the new suspect's streak quarantined %v, want [-1 -1 3]", got)
	}
}

// Shape evidence accuses no node, and an attempt with no host errors
// at all carries no evidence: either breaks the streak.
func TestHistoryStreakBrokenByNoSuspect(t *testing.T) {
	const none = recovery.NoNode
	for _, gap := range [][]core.HostError{ev(shape()), nil} {
		if got := quarantines(t, ev(value(7)), gap, ev(value(7))); !slices.Equal(got, []int{none, none, none}) {
			t.Fatalf("interrupted streak (gap %v) quarantined %v", gap, got)
		}
	}
}

// After a quarantine the streak restarts: spare 8, which took slot 2,
// must earn its own two accusations before it is quarantined in turn.
func TestHistoryReset(t *testing.T) {
	const none = recovery.NoNode
	got := quarantines(t, ev(value(2)), ev(value(2)), ev(value(2)), ev(value(2)))
	if !slices.Equal(got, []int{none, 2, none, 8}) {
		t.Fatalf("quarantined %v, want [-1 2 -1 8]", got)
	}
}
