package reliablesort

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/recovery"
	"repro/internal/wire"
)

// TestJournalKeepsSupervisorTimeline pins where each event of a sort is
// recorded. A node's Φ evaluations and accusations are records in its
// flight ring, which the observer only counts; the journal keeps the
// supervisor's timeline: attempts, backoff waits, quarantines and
// substitutions.
func TestJournalKeepsSupervisorTimeline(t *testing.T) {
	// An honest single-shot sort journals nothing but counts every
	// stage, round and Φ evaluation.
	o, flight := obs.New(obs.NewRegistry(), 0), forensic.New(0)
	if _, _, err := Sort(chaosKeys, Options{Dim: 3, Obs: o, Flight: flight}); err != nil {
		t.Fatal(err)
	}
	if n := o.J.Total(); n != 0 {
		t.Errorf("honest sort journaled %d events: %+v", n, o.J.Events())
	}
	m := o.M
	if m.Stages.Value() == 0 || m.Rounds.Value() == 0 {
		t.Errorf("stages/rounds = %d/%d, want both non-zero", m.Stages.Value(), m.Rounds.Value())
	}
	for _, phi := range []obs.Phi{obs.PhiP, obs.PhiF, obs.PhiC} {
		if m.PhiPass[phi].Value() == 0 || m.PhiFail[phi].Value() != 0 {
			t.Errorf("Φ_%v pass/fail = %d/%d, want passes only", phi, m.PhiPass[phi].Value(), m.PhiFail[phi].Value())
		}
	}
	if flight.Node(0).Len() == 0 || len(flight.Reports()) != 0 {
		t.Errorf("honest flight: node 0 holds %d records and %d reports", flight.Node(0).Len(), len(flight.Reports()))
	}

	// A persistent key-lie under supervision, with a spare to take the
	// liar's slot.
	o, flight = obs.New(obs.NewRegistry(), 0), forensic.New(0)
	const site = 5
	_, stats, err := Sort(chaosKeys, Options{
		Dim:         3,
		RecvTimeout: 500 * time.Millisecond,
		AutoRecover: true,
		MaxAttempts: 6,
		Spares:      1,
		Seed:        1,
		Sleep:       func(time.Duration) {},
		Obs:         o,
		Flight:      flight,
		Inject:      chaosInjector(fault.KeyLie, site, true),
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := stats.Recovery
	if rec == nil || len(rec.Substitutions) == 0 {
		t.Fatalf("persistent fault recovered without a substitution: %+v", rec)
	}
	var want []obs.EventKind
	for _, at := range rec.Attempts {
		if at.Index > 0 {
			want = append(want, obs.EvBackoff)
		}
		want = append(want, obs.EvAttemptBegin, obs.EvAttemptEnd)
		if at.Quarantined != recovery.NoNode {
			want = append(want, obs.EvQuarantine)
		}
		if at.Substituted != recovery.NoNode {
			want = append(want, obs.EvSubstitution)
		}
	}
	evs := o.J.Events()
	if len(evs) != len(want) {
		t.Fatalf("journal holds %d events, want the supervisor's %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.Kind != want[i] {
			t.Errorf("journal event %d is %v, want %v", i, ev.Kind, want[i])
		}
	}

	// Every counted accusation is one report in the flight.
	var accusations int64
	for _, rep := range flight.Reports() {
		if rep.Accuser != wire.HostID && rep.Accused >= 0 {
			accusations++
		}
	}
	if accusations == 0 || accusations != o.M.Accusations.Value() {
		t.Errorf("flight holds %d accusation reports, observer counted %d", accusations, o.M.Accusations.Value())
	}
}
