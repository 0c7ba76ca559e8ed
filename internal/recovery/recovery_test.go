package recovery

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/obs"
)

// noSleep collects the waits the supervisor would have slept.
func noSleep(log *[]time.Duration) func(time.Duration) {
	return func(d time.Duration) { *log = append(*log, d) }
}

func accuse(node int) []core.HostError {
	return []core.HostError{{
		Node: 0, Stage: 1, Iter: 0, Predicate: "consistency",
		Kind: core.KindValue, Accused: node, Detail: "copies differ",
	}}
}

func TestSuperviseFirstAttemptSuccess(t *testing.T) {
	var waits []time.Duration
	calls := 0
	rep, err := Supervise(3, func(p Plan) Outcome {
		calls++
		if p.Attempt != 0 || p.Dim != 3 || len(p.Physical) != 8 {
			t.Fatalf("plan = %+v", p)
		}
		for l, ph := range p.Physical {
			if l != ph {
				t.Fatalf("attempt 0 mapping not identity: %v", p.Physical)
			}
		}
		return Outcome{Cost: 100}
	}, Policy{Sleep: noSleep(&waits)})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 || len(rep.Attempts) != 1 || !rep.Attempts[0].Verified {
		t.Fatalf("report = %+v", rep)
	}
	if rep.WastedCost() != 0 || rep.TotalBackoff() != 0 || len(waits) != 0 {
		t.Fatalf("clean run accrued overhead: %+v waits=%v", rep, waits)
	}
	if rep.FinalDim() != 3 || len(rep.Quarantined()) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestSuperviseTransientRetries(t *testing.T) {
	var waits []time.Duration
	calls := 0
	rep, err := Supervise(3, func(p Plan) Outcome {
		calls++
		if p.Attempt == 0 {
			return Outcome{HostErrors: accuse(5), Cost: 70, Err: errors.New("fault detected")}
		}
		return Outcome{Cost: 80}
	}, Policy{Sleep: noSleep(&waits)})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 2 || len(rep.Attempts) != 2 {
		t.Fatalf("calls=%d attempts=%d", calls, len(rep.Attempts))
	}
	if rep.WastedCost() != 70 {
		t.Fatalf("WastedCost = %d", rep.WastedCost())
	}
	if len(waits) != 1 || waits[0] <= 0 {
		t.Fatalf("waits = %v", waits)
	}
	if rep.TotalBackoff() != waits[0] {
		t.Fatalf("TotalBackoff = %v, slept %v", rep.TotalBackoff(), waits)
	}
	a0 := rep.Attempts[0]
	if len(a0.Suspects) != 1 || a0.Suspects[0].Node != 5 || a0.Quarantined != NoNode {
		t.Fatalf("attempt 0 = %+v", a0)
	}
	// One transient accusation must not shrink the cube.
	if rep.FinalDim() != 3 || len(rep.Quarantined()) != 0 {
		t.Fatalf("report = %+v", rep)
	}
}

// TestSuperviseObservability checks the metric family a supervision
// feeds: a persistent fault supervised to a degraded verified result,
// counted once from its Report, must account every attempt, retry,
// quarantine, wasted tick, and backoff wait; an exhausted one counts
// its attempts but no verified result.
func TestSuperviseObservability(t *testing.T) {
	m := obs.NewMetrics(obs.NewRegistry())
	var waits []time.Duration
	rep, err := Supervise(3, func(p Plan) Outcome {
		if p.Attempt < 2 {
			return Outcome{HostErrors: accuse(5), Cost: 70, Err: errors.New("fault detected")}
		}
		return Outcome{Cost: 80}
	}, Policy{Sleep: noSleep(&waits)})
	if err != nil {
		t.Fatal(err)
	}
	rep.Count(m)
	if got := m.RecoveryAttempts.Value(); got != 3 {
		t.Errorf("attempts counter = %d, want 3", got)
	}
	if got := m.RecoveryRetries.Value(); got != 2 {
		t.Errorf("retries counter = %d, want 2", got)
	}
	if got := m.RecoveryVerified.Value(); got != 1 {
		t.Errorf("verified counter = %d, want 1", got)
	}
	if got := m.RecoveryQuarantines.Value(); got != 1 {
		t.Errorf("quarantines counter = %d, want 1", got)
	}
	if got := m.RecoveryWastedVTicks.Value(); got != 140 {
		t.Errorf("wasted vticks counter = %d, want 140", got)
	}
	var total time.Duration
	for _, w := range waits {
		total += w
	}
	if got := m.RecoveryBackoffNanos.Value(); got != int64(total) {
		t.Errorf("backoff nanos counter = %d, slept %d", got, int64(total))
	}

	_, err = Supervise(2, func(p Plan) Outcome {
		return Outcome{Cost: 10, Err: errors.New("fault detected")}
	}, Policy{MaxAttempts: 2, Sleep: noSleep(&waits)})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v", err)
	}
	ex.Count(m)
	if a, v, w := m.RecoveryAttempts.Value(), m.RecoveryVerified.Value(), m.RecoveryWastedVTicks.Value(); a != 5 || v != 1 || w != 160 {
		t.Errorf("after an exhausted supervision attempts/verified/wasted = %d/%d/%d, want 5/1/160", a, v, w)
	}
	// Count is nil-safe on both sides.
	(*Report)(nil).Count(m)
	rep.Count(nil)
}

// A fault that follows physical node 5 across attempts is judged
// persistent after two identical accusations; the supervisor drops it,
// remaps onto a dim-2 subcube, and the degraded re-run succeeds.
func TestSupervisePersistentQuarantineAndShrink(t *testing.T) {
	var waits []time.Duration
	var plans []Plan
	rep, err := Supervise(3, func(p Plan) Outcome {
		plans = append(plans, p)
		for l, ph := range p.Physical {
			if ph == 5 {
				// The fault lives at physical node 5.
				return Outcome{HostErrors: accuse(l), Cost: 50, Err: errors.New("fault detected")}
			}
		}
		return Outcome{Cost: 60}
	}, Policy{Sleep: noSleep(&waits)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3 (fail, fail+quarantine, verified)", len(rep.Attempts))
	}
	if got := rep.Quarantined(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Quarantined = %v", got)
	}
	if rep.Attempts[1].Quarantined != 5 {
		t.Fatalf("attempt 1 = %+v", rep.Attempts[1])
	}
	if rep.FinalDim() != 2 {
		t.Fatalf("FinalDim = %d", rep.FinalDim())
	}
	last := plans[len(plans)-1]
	if last.Dim != 2 || len(last.Physical) != 4 {
		t.Fatalf("final plan = %+v", last)
	}
	// Node 5 has top bit 1 on a dim-3 cube, so the kept subcube is the
	// lower half: physical labels 0..3.
	for l, ph := range last.Physical {
		if ph != l {
			t.Fatalf("final mapping = %v", last.Physical)
		}
	}
	if rep.WastedCost() != 100 {
		t.Fatalf("WastedCost = %d", rep.WastedCost())
	}
}

// A suspect in the lower half must leave the upper half's labels
// intact (relabeled by dropping the top axis bit).
func TestShrinkKeepsOppositeHalf(t *testing.T) {
	phys := []int{0, 1, 2, 3, 4, 5, 6, 7}
	got := shrink(phys, 2, 3) // suspect logical 2: top bit 0 → keep upper half
	want := []int{4, 5, 6, 7}
	if len(got) != len(want) {
		t.Fatalf("shrink = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("shrink = %v, want %v", got, want)
		}
	}
}

func TestSuperviseExhaustion(t *testing.T) {
	var waits []time.Duration
	sentinel := errors.New("fault detected")
	_, err := Supervise(2, func(p Plan) Outcome {
		// Unattributable failure every time: nothing to quarantine.
		return Outcome{Cost: 10, Err: sentinel}
	}, Policy{MaxAttempts: 3, Sleep: noSleep(&waits)})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v", err)
	}
	if len(ex.Attempts) != 3 {
		t.Fatalf("history = %d attempts", len(ex.Attempts))
	}
	if !errors.Is(err, sentinel) {
		t.Fatal("ExhaustedError does not unwrap to the last attempt error")
	}
	if len(waits) != 2 {
		t.Fatalf("waits = %v", waits)
	}
}

// Alternating accusations (suspect changes every attempt) never reach
// the persistence streak, so the cube is never shrunk.
func TestSuperviseAlternatingSuspectsNeverQuarantines(t *testing.T) {
	var waits []time.Duration
	_, err := Supervise(3, func(p Plan) Outcome {
		return Outcome{HostErrors: accuse(p.Attempt % 2), Err: errors.New("fault detected")}
	}, Policy{MaxAttempts: 5, Sleep: noSleep(&waits)})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v", err)
	}
	if len(ex.Quarantined()) != 0 {
		t.Fatalf("Quarantined = %v", ex.Quarantined())
	}
	for _, a := range ex.Attempts {
		if a.Dim != 3 {
			t.Fatalf("attempt %d ran at dim %d", a.Index, a.Dim)
		}
	}
}

func TestSuperviseRespectsMinDim(t *testing.T) {
	var waits []time.Duration
	_, err := Supervise(1, func(p Plan) Outcome {
		return Outcome{HostErrors: accuse(1), Err: errors.New("fault detected")}
	}, Policy{MaxAttempts: 4, Sleep: noSleep(&waits)})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v", err)
	}
	// Persistent at dim 1, the quarantine floor: nothing to shrink to,
	// so the supervisor retries until the budget runs out.
	if len(ex.Quarantined()) != 0 {
		t.Fatalf("Quarantined = %v below the dimension floor", ex.Quarantined())
	}
	for _, a := range ex.Attempts {
		if a.Dim != 1 || len(a.Physical) != 2 {
			t.Fatalf("attempt = %+v", a)
		}
	}
}

func TestBackoffCappedExponentialWithJitter(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	prevNominal := time.Duration(0)
	for retry := 1; retry <= 10; retry++ {
		nominal := min(BackoffBase<<uint(retry-1), BackoffMax)
		w := backoff(retry, rng)
		lo, hi := nominal/2, nominal
		if w < lo || w > hi {
			t.Fatalf("retry %d: wait %v outside [%v,%v]", retry, w, lo, hi)
		}
		if nominal < prevNominal {
			t.Fatalf("nominal shrank: %v after %v", nominal, prevNominal)
		}
		prevNominal = nominal
	}
}

func TestBackoffDeterministicBySeed(t *testing.T) {
	a1 := backoff(3, rand.New(rand.NewSource(7)))
	a2 := backoff(3, rand.New(rand.NewSource(7)))
	if a1 != a2 {
		t.Fatalf("same seed, different waits: %v vs %v", a1, a2)
	}
}

// TestSuperviseWaitsFollowSeed pins the waits Supervise sleeps
// between three failed attempts to the sequence backoff draws from a
// source seeded with the policy's seed.
func TestSuperviseWaitsFollowSeed(t *testing.T) {
	const seed = 42
	var waits []time.Duration
	_, err := Supervise(2, func(p Plan) Outcome {
		if p.Attempt < 3 {
			return Outcome{Cost: 10, Err: errors.New("fault detected")}
		}
		return Outcome{Cost: 10}
	}, Policy{Seed: seed, Sleep: noSleep(&waits)})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	want := []time.Duration{backoff(1, rng), backoff(2, rng), backoff(3, rng)}
	if !slices.Equal(waits, want) {
		t.Fatalf("waits = %v, want %v", waits, want)
	}
}

func TestSuperviseRejectsBadInputs(t *testing.T) {
	if _, err := Supervise(3, nil, Policy{}); err == nil {
		t.Error("nil runner accepted")
	}
	if _, err := Supervise(-1, func(Plan) Outcome { return Outcome{} }, Policy{}); err == nil {
		t.Error("negative dim accepted")
	}
}

// Accusations naming labels outside the current cube (a Byzantine
// node can claim anything) are dropped during the logical→physical
// translation rather than panicking or polluting the history.
func TestPhysicalSuspectsDropsOutOfRange(t *testing.T) {
	ranked := []diagnose.Suspect{
		{Node: 99, DirectVotes: 3},
		{Node: 1, DirectVotes: 1},
		{Node: -2, DirectVotes: 1},
	}
	got := physicalSuspects(ranked, []int{0, 1, 2, 3})
	if len(got) != 1 || got[0].Node != 1 {
		t.Fatalf("physicalSuspects = %+v", got)
	}
}

// A persistent fault with a spare pooled is repaired by substitution:
// the spare takes the suspect's logical slot, the dimension never
// drops, and the remaining pool rides the next plan.
func TestSuperviseSubstitutesSpareAtFullDim(t *testing.T) {
	var waits []time.Duration
	var plans []Plan
	rep, err := Supervise(3, func(p Plan) Outcome {
		plans = append(plans, p)
		for l, ph := range p.Physical {
			if ph == 5 {
				return Outcome{HostErrors: accuse(l), Cost: 50, Err: errors.New("fault detected")}
			}
		}
		return Outcome{Cost: 60}
	}, Policy{Spares: 2, Sleep: noSleep(&waits)})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Attempts) != 3 {
		t.Fatalf("attempts = %d, want 3 (fail, fail+substitute, verified)", len(rep.Attempts))
	}
	if got := rep.Quarantined(); len(got) != 1 || got[0] != 5 {
		t.Fatalf("Quarantined = %v", got)
	}
	if got := rep.SparesUsed(); len(got) != 1 || got[0] != 8 {
		t.Fatalf("SparesUsed = %v, want [8]", got)
	}
	if rep.Attempts[1].Quarantined != 5 || rep.Attempts[1].Substituted != 8 {
		t.Fatalf("attempt 1 = %+v", rep.Attempts[1])
	}
	if rep.FinalDim() != 3 {
		t.Fatalf("FinalDim = %d, substitution must preserve the dimension", rep.FinalDim())
	}
	last := plans[len(plans)-1]
	if last.Dim != 3 || len(last.Physical) != 8 {
		t.Fatalf("final plan = %+v", last)
	}
	if last.Physical[5] != 8 {
		t.Fatalf("spare 8 not at the suspect's slot: %v", last.Physical)
	}
	for l, ph := range last.Physical {
		if l != 5 && ph != l {
			t.Fatalf("substitution disturbed slot %d: %v", l, last.Physical)
		}
	}
	if last.Spares != 1 {
		t.Fatalf("remaining pool = %d, want 1", last.Spares)
	}
}

// A fault that chases the logical slot (suspect, then its replacement
// spare, then the next) consumes the pool in order and only then falls
// back to the subcube shrink.
func TestSuperviseSparePoolConsumedInOrderThenShrinks(t *testing.T) {
	var waits []time.Duration
	rep, err := Supervise(3, func(p Plan) Outcome {
		if len(p.Physical) > 5 {
			// Whatever occupies logical slot 5 is faulty: the part is
			// fine, the socket is bad.
			return Outcome{HostErrors: accuse(5), Cost: 10, Err: errors.New("fault detected")}
		}
		return Outcome{Cost: 20}
	}, Policy{MaxAttempts: 8, Spares: 2, Sleep: noSleep(&waits)})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Quarantined(), []int{5, 8, 9}; !slices.Equal(got, want) {
		t.Fatalf("Quarantined = %v, want %v", got, want)
	}
	if got, want := rep.SparesUsed(), []int{8, 9}; !slices.Equal(got, want) {
		t.Fatalf("SparesUsed = %v, want %v", got, want)
	}
	// Two substitutions held dim 3; the third quarantine had a dry
	// pool and shrank.
	if rep.FinalDim() != 2 {
		t.Fatalf("FinalDim = %d, want 2 after pool exhaustion", rep.FinalDim())
	}
	for _, a := range rep.Attempts {
		if a.Substituted != NoNode && a.Dim != 3 {
			t.Fatalf("substitution at dim %d: %+v", a.Dim, a)
		}
	}
}

// Substitution needs no smaller cube to fall back to, so it works even
// at the dimension floor where a shrink would be refused.
func TestSuperviseSubstitutesAtMinDim(t *testing.T) {
	var waits []time.Duration
	rep, err := Supervise(1, func(p Plan) Outcome {
		for l, ph := range p.Physical {
			if ph == 1 {
				return Outcome{HostErrors: accuse(l), Cost: 5, Err: errors.New("fault detected")}
			}
		}
		return Outcome{Cost: 5}
	}, Policy{MaxAttempts: 5, Spares: 1, Sleep: noSleep(&waits)})
	if err != nil {
		t.Fatal(err)
	}
	if rep.FinalDim() != 1 {
		t.Fatalf("FinalDim = %d", rep.FinalDim())
	}
	if q, used := rep.Quarantined(), rep.SparesUsed(); !slices.Equal(q, []int{1}) || !slices.Equal(used, []int{2}) {
		t.Fatalf("quarantined %v, spares used %v; want spare 2 at suspect 1", q, used)
	}
}

// A supervision may start below the dimension floor, on a single
// node. A persistent accusation against that node must surface as a
// clean ExhaustedError, not a panic from a negative shrink axis.
func TestSuperviseDimZeroNeverShrinksBelow(t *testing.T) {
	var waits []time.Duration
	_, err := Supervise(0, func(p Plan) Outcome {
		// Always accuse logical node 0, the sole node.
		return Outcome{HostErrors: accuse(0), Cost: 1, Err: errors.New("fault detected")}
	}, Policy{MaxAttempts: 6, Sleep: noSleep(&waits)})
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("err = %v", err)
	}
	if len(ex.Attempts) != 6 || len(ex.Quarantined()) != 0 {
		t.Fatalf("attempts %d, quarantined %v: want 6 attempts and no quarantine", len(ex.Attempts), ex.Quarantined())
	}
	for _, a := range ex.Attempts {
		if a.Dim != 0 || len(a.Physical) != 1 || a.Quarantined != NoNode {
			t.Fatalf("attempt = %+v", a)
		}
	}
}

// TestSupervisePersistenceStreak pins when the supervisor judges a
// fault persistent. Each case lists the logical slot every failed
// attempt's evidence accuses (NoNode: no attributable evidence) and
// wants, per failed attempt, the physical node quarantined after it.
// Spares keep the logical slots in place across quarantines.
func TestSupervisePersistenceStreak(t *testing.T) {
	cases := []struct {
		name    string
		accused []int
		want    []int
	}{
		{"two in a row quarantine", []int{5, 5}, []int{NoNode, 5}},
		{"one accusation is transient", []int{5}, []int{NoNode}},
		{"another suspect restarts the streak", []int{5, 3}, []int{NoNode, NoNode}},
		{"no suspect restarts the streak", []int{7, NoNode, 7}, []int{NoNode, NoNode, NoNode}},
		{"the streak resumes after a break", []int{7, NoNode, 7, 7}, []int{NoNode, NoNode, NoNode, 7}},
		{"the new suspect's streak counts", []int{5, 3, 3}, []int{NoNode, NoNode, 3}},
		// Spare 8 takes slot 5 after the first quarantine; it must earn
		// its own streak.
		{"a quarantine restarts the streak", []int{5, 5, 5, 5}, []int{NoNode, 5, NoNode, 8}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var waits []time.Duration
			rep, err := Supervise(3, func(p Plan) Outcome {
				if p.Attempt == len(tc.accused) {
					return Outcome{Cost: 1}
				}
				var errs []core.HostError
				if l := tc.accused[p.Attempt]; l != NoNode {
					errs = accuse(l)
				}
				return Outcome{HostErrors: errs, Cost: 1, Err: errors.New("fault detected")}
			}, Policy{MaxAttempts: len(tc.accused) + 1, Spares: 3, Sleep: noSleep(&waits)})
			if err != nil {
				t.Fatal(err)
			}
			var got []int
			for _, a := range rep.Attempts[:len(rep.Attempts)-1] {
				got = append(got, a.Quarantined)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("quarantined per attempt %v, want %v", got, tc.want)
			}
		})
	}
}
