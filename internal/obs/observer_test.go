package obs

import (
	"fmt"
	"testing"

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
	o.DigestCheck(true)
	if o.Metrics() != nil {
		t.Fatal("nil observer accessor should return nil")
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

	// Node protocol events only count: the journal keeps the service's
	// job spans, and nothing an observer records lands there.
	if n := o.J.Total(); n != 0 {
		t.Fatalf("observer journaled %d events: %+v", n, o.J.Events())
	}
}

// TestEventKindValues pins the journal's event kinds by number and
// name: /debug/journal serializes kind as a number.
func TestEventKindValues(t *testing.T) {
	want := map[EventKind]string{7: "span-begin", 8: "span-end"}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("kind %d = %q, want %q", uint8(k), k.String(), name)
		}
	}
	if EvSpanBegin != 7 || EvSpanEnd != 8 {
		t.Errorf("EvSpanBegin, EvSpanEnd = %d, %d, want 7, 8", EvSpanBegin, EvSpanEnd)
	}
	for _, k := range []EventKind{0, 1, 6, 9, 13} {
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
