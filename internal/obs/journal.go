package obs

import (
	"sync"
	"time"
)

// DefaultJournalCap is the journal capacity used when callers pass a
// non-positive capacity: sortserver's journal keeps the spans of its
// last 2,048 jobs, two events each.
const DefaultJournalCap = 4096

// Journal is a bounded ring buffer of the service's job spans. Node
// protocol events are recorded in the flight rings of package
// forensic, and a supervision's attempts in its recovery.Report.
// Appending is allocation-free: the ring is preallocated and events
// are fixed-size structs copied by value; once full, the oldest events
// are overwritten (Dropped counts them). Safe for concurrent use.
type Journal struct {
	mu      sync.Mutex
	ring    []Event
	next    uint64 // total events ever appended; next%cap is the write slot
	dropped uint64 // events overwritten after the ring filled

	// dropCtr, when non-nil, mirrors dropped into a registry counter
	// (obs_journal_dropped_total) so scrapes see losses without holding
	// the journal lock.
	dropCtr *Counter
}

// NewJournal returns a journal holding up to capacity events
// (DefaultJournalCap when capacity <= 0).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Journal{ring: make([]Event, 0, capacity)}
}

// Append stamps ev's Seq and Wall fields and stores it, overwriting
// the oldest event when full.
func (j *Journal) Append(ev Event) {
	if j == nil {
		return
	}
	ev.Wall = time.Now().UnixNano()
	j.mu.Lock()
	ev.Seq = j.next
	j.next++
	if len(j.ring) < cap(j.ring) {
		j.ring = append(j.ring, ev)
	} else {
		j.ring[int(ev.Seq)%cap(j.ring)] = ev
		j.dropped++
		j.dropCtr.Inc()
	}
	j.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first.
func (j *Journal) Events() []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, len(j.ring))
	if int(j.next) > cap(j.ring) {
		// Wrapped: the oldest retained event sits at the write cursor.
		start := int(j.next) % cap(j.ring)
		out = append(out, j.ring[start:]...)
		out = append(out, j.ring[:start]...)
		return out
	}
	return append(out, j.ring...)
}

// Len returns the number of retained events.
func (j *Journal) Len() int {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.ring)
}

// Total returns the number of events ever appended.
func (j *Journal) Total() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.next
}

// Dropped returns how many events have been overwritten.
func (j *Journal) Dropped() uint64 {
	if j == nil {
		return 0
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// BindDroppedCounter mirrors every future overwrite into c (typically
// the obs_journal_dropped_total registry counter), seeding it with
// overwrites that already happened.
func (j *Journal) BindDroppedCounter(c *Counter) {
	if j == nil {
		return
	}
	j.mu.Lock()
	j.dropCtr = c
	c.Add(int64(j.dropped))
	j.mu.Unlock()
}
