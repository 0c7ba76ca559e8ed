package obs

import (
	"testing"

	"repro/internal/wire"
)

// TestRecordingZeroAllocs pins every record-time entry point at zero
// allocations per operation. These are the calls the steady-state
// send/receive path makes; if any of them allocates, attaching an
// Observer would break the PR-2 zero-allocation guarantee.
func TestRecordingZeroAllocs(t *testing.T) {
	reg := NewRegistry()
	m := NewMetrics(reg)
	o := &Observer{M: m, J: NewJournal(64)}
	h := reg.Histogram("alloc_h", "", DefaultVTickBuckets())

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter-inc", func() { m.MergeCompares.Inc() }},
		{"counter-add", func() { m.MergeCompares.Add(3) }},
		{"gauge-set", func() { reg.Gauge("alloc_g", "").Set(7) }},
		{"histogram-observe", func() { h.Observe(123456) }},
		{"record-message", func() { m.RecordMessage(wire.KindFTExchange, 96) }},
		{"journal-append", func() { o.J.Append(Event{Kind: EvSpanBegin, Label: "job", Node: 1}) }},
		{"stage-end", func() { o.StageEnd(300) }},
		{"round-end", func() { o.RoundEnd() }},
		{"phi-check", func() { o.PhiCheck(PhiC, true) }},
		{"digest-check", func() { o.DigestCheck(true); o.DigestCheck(false) }},
		{"accusation", func() { o.Accusation() }},
		{"merge-compares", func() { o.MergeCompares(31) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Warm up so lazy runtime state doesn't count.
			for i := 0; i < 8; i++ {
				tc.fn()
			}
			if n := testing.AllocsPerRun(200, tc.fn); n != 0 {
				t.Fatalf("%s: %v allocs/op, want 0", tc.name, n)
			}
		})
	}
}

func BenchmarkJournalAppend(b *testing.B) {
	j := NewJournal(4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j.Append(Event{Kind: EvSpanBegin, Label: "job", Node: 1, Stage: -1, Iter: -1, Aux: int64(i)})
	}
}

func BenchmarkPhiCheck(b *testing.B) {
	o := New(NewRegistry(), 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.PhiCheck(PhiP, i%2 == 0)
	}
}
