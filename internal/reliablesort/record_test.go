package reliablesort

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/wire"
)

// TestSortRecordsEachEventOnce pins where each event of a sort is
// recorded. A node's Φ evaluations and accusations are records in its
// flight ring, which the observer only counts; a supervision's
// attempts, backoff waits, quarantines and substitutions are its
// Report, which the recovery counters count. Sort journals nothing.
func TestSortRecordsEachEventOnce(t *testing.T) {
	// An honest fail-stop sort journals nothing but counts every stage,
	// round and Φ evaluation.
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
	if rec == nil || len(rec.SparesUsed()) == 0 {
		t.Fatalf("persistent fault recovered without a substitution: %+v", rec)
	}
	if n := o.J.Total(); n != 0 {
		t.Errorf("supervised sort journaled %d events: %+v", n, o.J.Events())
	}
	m = o.M
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"attempts", m.RecoveryAttempts.Value(), int64(len(rec.Attempts))},
		{"retries", m.RecoveryRetries.Value(), int64(len(rec.Attempts) - 1)},
		{"verified", m.RecoveryVerified.Value(), 1},
		{"quarantines", m.RecoveryQuarantines.Value(), int64(len(rec.Quarantined()))},
		{"substitutions", m.RecoverySubstitutions.Value(), int64(len(rec.SparesUsed()))},
		{"wasted vticks", m.RecoveryWastedVTicks.Value(), rec.WastedCost()},
		{"backoff nanos", m.RecoveryBackoffNanos.Value(), int64(rec.TotalBackoff())},
	} {
		if c.got != c.want {
			t.Errorf("recovery %s counter = %d, report says %d", c.name, c.got, c.want)
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
