package obs

import (
	"bytes"
	"strings"
	"testing"
)

func TestJournalAppendAndOrder(t *testing.T) {
	j := NewJournal(8)
	for i := 0; i < 5; i++ {
		j.Append(Event{Kind: EvSpanBegin, Iter: int32(i)})
	}
	evs := j.Events()
	if len(evs) != 5 || j.Len() != 5 || j.Total() != 5 || j.Dropped() != 0 {
		t.Fatalf("len/total/dropped = %d/%d/%d, want 5/5/0", j.Len(), j.Total(), j.Dropped())
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i) || ev.Iter != int32(i) {
			t.Fatalf("event %d out of order: seq=%d iter=%d", i, ev.Seq, ev.Iter)
		}
		if ev.Wall == 0 {
			t.Fatalf("event %d missing wall stamp", i)
		}
	}
}

func TestJournalWrap(t *testing.T) {
	j := NewJournal(4)
	for i := 0; i < 10; i++ {
		j.Append(Event{Kind: EvSpanBegin, Iter: int32(i)})
	}
	if j.Len() != 4 || j.Total() != 10 || j.Dropped() != 6 {
		t.Fatalf("len/total/dropped = %d/%d/%d, want 4/10/6", j.Len(), j.Total(), j.Dropped())
	}
	evs := j.Events()
	for i, ev := range evs {
		want := int32(6 + i) // oldest retained is event 6
		if ev.Iter != want || ev.Seq != uint64(want) {
			t.Fatalf("event %d: seq=%d iter=%d, want %d", i, ev.Seq, ev.Iter, want)
		}
	}
}

func TestJournalDroppedCounter(t *testing.T) {
	reg := NewRegistry()
	o := New(reg, 4)
	for i := 0; i < 10; i++ {
		o.J.Append(Event{Kind: EvSpanBegin, Iter: int32(i)})
	}
	if got := o.Metrics().JournalDropped.Value(); got != 6 {
		t.Fatalf("obs_journal_dropped_total = %d, want 6", got)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "obs_journal_dropped_total 6") {
		t.Fatalf("exposition missing dropped counter:\n%s", buf.String())
	}

	// Binding after the ring has already wrapped seeds the counter with
	// the drops that happened before it was attached.
	j := NewJournal(2)
	for i := 0; i < 5; i++ {
		j.Append(Event{Kind: EvSpanEnd})
	}
	c := NewRegistry().Counter("obs_journal_dropped_total", "test")
	j.BindDroppedCounter(c)
	if c.Value() != 3 {
		t.Fatalf("late-bound counter = %d, want 3 pre-bind drops", c.Value())
	}
	j.Append(Event{Kind: EvSpanEnd})
	if c.Value() != 4 {
		t.Fatalf("counter after one more drop = %d, want 4", c.Value())
	}
}

func TestJournalNilSafe(t *testing.T) {
	var j *Journal
	j.Append(Event{Kind: EvSpanEnd})
	if j.Events() != nil || j.Len() != 0 || j.Total() != 0 || j.Dropped() != 0 {
		t.Fatal("nil journal should be inert")
	}
}
