package obs

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

func TestObserverNilSafe(t *testing.T) {
	var o *Observer
	// Every method on a nil observer must be a no-op, since protocol
	// code calls them unconditionally.
	o.StageEnd(10)
	o.RoundEnd()
	o.PhiCheck(PhiP, true)
	o.Accusation()
	o.MergeCompares(5)
	o.AttemptBegin(0, 3)
	o.AttemptEnd(0, 3, 100, true)
	o.Quarantine(2, 0)
	o.Substitution(2, 4, 0)
	o.Backoff(time.Millisecond)
	if o.Journal() != nil || o.Metrics() != nil {
		t.Fatal("nil observer accessors should return nil")
	}
}

func TestObserverRecordsMetricsAndJournal(t *testing.T) {
	o := New(NewRegistry(), 64)
	o.PhiCheck(PhiP, true)
	o.PhiCheck(PhiF, false)
	o.RoundEnd()
	o.StageEnd(300)
	o.Accusation()
	o.MergeCompares(17)
	o.AttemptBegin(0, 3)
	o.AttemptEnd(0, 3, 9000, false)
	o.Quarantine(5, 0)
	o.Substitution(5, 8, 0)
	o.Backoff(2 * time.Millisecond)
	o.AttemptBegin(1, 3)
	o.AttemptEnd(1, 3, 8000, true)

	m := o.M
	if m.Stages.Value() != 1 || m.Rounds.Value() != 1 {
		t.Fatalf("stages/rounds = %d/%d", m.Stages.Value(), m.Rounds.Value())
	}
	if m.PhiPass[PhiP].Value() != 1 || m.PhiFail[PhiF].Value() != 1 || m.PhiFail[PhiP].Value() != 0 {
		t.Fatal("phi counters wrong")
	}
	if m.Accusations.Value() != 1 || m.MergeCompares.Value() != 17 {
		t.Fatal("accusation/compare counters wrong")
	}
	if m.StageVTicks.Count() != 1 || m.StageVTicks.Sum() != 300 {
		t.Fatalf("stage histogram count/sum = %d/%d", m.StageVTicks.Count(), m.StageVTicks.Sum())
	}
	if m.RecoveryAttempts.Value() != 2 || m.RecoveryRetries.Value() != 1 {
		t.Fatalf("attempts/retries = %d/%d", m.RecoveryAttempts.Value(), m.RecoveryRetries.Value())
	}
	if m.RecoveryVerified.Value() != 1 || m.RecoveryWastedVTicks.Value() != 9000 {
		t.Fatalf("verified/wasted = %d/%d", m.RecoveryVerified.Value(), m.RecoveryWastedVTicks.Value())
	}
	if m.RecoveryQuarantines.Value() != 1 || m.RecoverySubstitutions.Value() != 1 {
		t.Fatal("quarantine/substitution counters wrong")
	}
	if m.RecoveryBackoffNanos.Value() != int64(2*time.Millisecond) {
		t.Fatal("backoff counter wrong")
	}

	// Node protocol events only count; the journal is the supervisor's
	// timeline, in call order.
	want := []EventKind{EvAttemptBegin, EvAttemptEnd, EvQuarantine, EvSubstitution,
		EvBackoff, EvAttemptBegin, EvAttemptEnd}
	evs := o.J.Events()
	if len(evs) != len(want) {
		t.Fatalf("journal has %d events, want %d: %+v", len(evs), len(want), evs)
	}
	for i, ev := range evs {
		if ev.Kind != want[i] {
			t.Fatalf("event %d is %v, want %v", i, ev.Kind, want[i])
		}
	}
	if end := evs[1]; end.Pass || end.Aux != 9000 || end.Stage != 0 || end.Iter != 3 {
		t.Fatalf("attempt end event %+v", end)
	}
	if sub := evs[3]; sub.Node != 5 || sub.Aux != 8 {
		t.Fatalf("substitution event %+v", sub)
	}
}

// TestEventKindValues pins the journal's event kinds by number and
// name: /debug/journal serializes kind as a number.
func TestEventKindValues(t *testing.T) {
	want := map[EventKind]string{
		7: "span-begin", 8: "span-end", 9: "attempt-begin", 10: "attempt-end",
		11: "quarantine", 12: "backoff", 13: "substitution",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("kind %d = %q, want %q", uint8(k), k.String(), name)
		}
	}
	if EvSpanBegin != 7 || EvSubstitution != 13 {
		t.Errorf("EvSpanBegin..EvSubstitution = %d..%d, want 7..13", EvSpanBegin, EvSubstitution)
	}
	for _, k := range []EventKind{0, 1, 6, 14} {
		if got := k.String(); got != fmt.Sprintf("event(%d)", uint8(k)) {
			t.Errorf("unused kind %d = %q", uint8(k), got)
		}
	}
}

func TestRecordMessage(t *testing.T) {
	m := NewMetrics(NewRegistry())
	m.RecordMessage(wire.KindExchange, 40)
	m.RecordMessage(wire.KindExchange, 40)
	m.RecordMessage(wire.KindFTExchange, 100)
	m.RecordMessage(wire.Kind(200), 7) // out of range: ignored
	if m.MsgsTotal[wire.KindExchange].Value() != 2 ||
		m.BytesTotal[wire.KindExchange].Value() != 80 {
		t.Fatal("exchange counters wrong")
	}
	if m.MsgsTotal[wire.KindFTExchange].Value() != 1 ||
		m.BytesTotal[wire.KindFTExchange].Value() != 100 {
		t.Fatal("ft-exchange counters wrong")
	}
	var nilM *Metrics
	nilM.RecordMessage(wire.KindExchange, 1) // nil-safe
}

func TestDefaultSingletons(t *testing.T) {
	if DefaultMetrics() != DefaultMetrics() {
		t.Fatal("DefaultMetrics should be a singleton")
	}
	if Default() != Default() {
		t.Fatal("Default should be a singleton")
	}
	if Default().M != DefaultMetrics() {
		t.Fatal("Default observer should carry the default metrics")
	}
}
