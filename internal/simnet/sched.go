// Scheduler seam: message delivery order is pluggable.
//
// A simnet Network runs in one of two regimes:
//
//   - Free-running (the default, Config.Sched nil): links are
//     raw buffered channels and delivery order is whatever the Go
//     runtime produces. This is the path every benchmark and
//     experiment pins — per-link order is still FIFO (each cube link
//     has a unique writer), but multi-producer order into the host
//     mailbox is decided by the OS scheduler. Absence is decided at
//     quiescence by the same rule as under a controlled scheduler.
//
//   - Controlled (a non-nil Scheduler): delivery is mediated by a
//     coordinator (controlled.go). The network waits until every live
//     worker is parked at a blocking receive, fires all *forced*
//     deliveries — those whose order no realizable execution can vary:
//     a cube or host-downlink queue has a unique writer, so its FIFO
//     head is the receiver's only possible next message — and consults
//     the Scheduler only at genuine races: which sender's pending
//     message the host mailbox yields next, or whether a poll beats a
//     concurrent send. This is DPOR-style independence by
//     construction: deliveries to distinct receivers commute, so they
//     are batched instead of branched.
//
// Every consulted decision is recorded as a Step, so any controlled
// run yields a schedule that NewReplay replays deterministically:
// bit-identical virtual-tick series, identical forensic dumps.
package simnet

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/wire"
)

// QueueKind discriminates the three delivery queue families.
type QueueKind uint8

const (
	// QLink is a cube link: inbound at Queue.Node from its partner
	// across dimension Queue.Bit. Unique writer, FIFO forced.
	QLink QueueKind = iota + 1
	// QHostIn is the host's inbound mailbox. Every node writes it, so
	// merge order across senders is a genuine race — the scheduler's
	// main choice point. Per-sender order stays FIFO.
	QHostIn
	// QHostOut is node Queue.Node's inbound mailbox for host messages.
	// Unique writer (the host), FIFO forced.
	QHostOut
)

// String names the queue kind.
func (k QueueKind) String() string {
	switch k {
	case QLink:
		return "link"
	case QHostIn:
		return "host-in"
	case QHostOut:
		return "host-out"
	default:
		return fmt.Sprintf("queue(%d)", uint8(k))
	}
}

// QueueID names one delivery queue.
type QueueID struct {
	Kind QueueKind `json:"kind"`
	// Node is the receiving node label (HostID for QHostIn).
	Node int `json:"node"`
	// Bit is the cube dimension for QLink, 0 otherwise.
	Bit int `json:"bit"`
}

func (q QueueID) String() string {
	if q.Kind == QLink {
		return fmt.Sprintf("link[%d.%d]", q.Node, q.Bit)
	}
	return fmt.Sprintf("%v[%d]", q.Kind, q.Node)
}

// ActionKind discriminates what an enabled scheduling action does.
type ActionKind uint8

const (
	// ActDeliver hands a pending message to the queue's receiver.
	ActDeliver ActionKind = iota + 1
	// ActEmpty resolves a non-blocking poll (TryRecv) as "nothing
	// pending yet" — the interleaving where the poll beat concurrent
	// sends. Enabled only while senders are still live.
	ActEmpty
)

// Action is one enabled scheduling action at a decision point. Its
// identity is positional, not content-addressed: From plus Seq (the
// per-(queue, sender) delivery index) names the same message on every
// re-execution of the same choice prefix, which is what lets replay
// directives survive schedule shrinking.
type Action struct {
	Kind  ActionKind `json:"act"`
	Queue QueueID    `json:"queue"`
	// From is the sending node label (HostID when the host sent it).
	// Meaningless for ActEmpty.
	From int `json:"from,omitempty"`
	// Seq is the 0-based index of this message among all messages From
	// has sent into Queue.
	Seq uint64 `json:"seq"`
	// MsgKind, Stage, and Iter describe the pending message's header,
	// for human-readable schedules. They do not participate in
	// identity.
	MsgKind wire.Kind `json:"msg,omitempty"`
	Stage   int32     `json:"stage,omitempty"`
	Iter    int32     `json:"iter,omitempty"`
}

// Same reports whether two actions name the same scheduling choice
// (identity fields only; header metadata is advisory).
func (a Action) Same(b Action) bool {
	return a.Kind == b.Kind && a.Queue == b.Queue && a.From == b.From && a.Seq == b.Seq
}

func (a Action) String() string {
	if a.Kind == ActEmpty {
		return fmt.Sprintf("empty(%v)", a.Queue)
	}
	return fmt.Sprintf("deliver(%v<-%d #%d %v s%d i%d)", a.Queue, a.From, a.Seq, a.MsgKind, a.Stage, a.Iter)
}

// Decision is one consulted scheduling choice: the canonical state
// hash at the quiescent point and the enabled actions, in canonical
// order (sorted by queue, then sender). len(Enabled) >= 2 — forced
// moves are never consulted.
type Decision struct {
	// Point is the 0-based index of this decision within the run.
	Point int
	// State is the canonical state hash at this decision point: each
	// node worker's exact receive-history digest plus park/done status,
	// with host-mailbox drain history folded commutatively (its only
	// consumers canonicalize order), plus all pending queue contents.
	// Equal hashes mean the same abstract system state, so subtrees
	// below a repeated hash are redundant.
	State uint64
	// Enabled lists the schedulable actions, canonically ordered.
	Enabled []Action
}

// Step is one recorded decision: what was enabled, what was picked.
// The sequence of Steps of a controlled run is its schedule.
type Step struct {
	State   uint64   `json:"state"`
	Enabled []Action `json:"enabled"`
	Picked  int      `json:"picked"`
}

// Scheduler decides delivery order for a controlled Network.
// Implementations are consulted from network-internal goroutines and
// are never called concurrently with themselves.
type Scheduler interface {
	// Pick chooses one of d.Enabled (returning its index) at a
	// consulted decision point. Out-of-range returns are clamped to
	// the canonical choice 0.
	Pick(d Decision) int
}

// RandomSched picks uniformly among enabled actions, seeded — the
// controlled analogue of the chaos the OS scheduler provides for free,
// but reproducible and recorded. Use Network.Steps after the run to
// recover the schedule it chose.
type RandomSched struct {
	rng *rand.Rand
}

// NewRandom returns a seeded uniform controlled scheduler.
func NewRandom(seed int64) *RandomSched {
	return &RandomSched{rng: rand.New(rand.NewSource(seed))}
}

// Pick implements Scheduler.
func (s *RandomSched) Pick(d Decision) int { return s.rng.Intn(len(d.Enabled)) }

// ReplaySched replays a recorded schedule: an ordered list of
// directives (the previously picked actions). At each decision point,
// if the next directive names an enabled action it is taken and
// consumed; otherwise the canonical choice 0 is taken and the
// directive stays, free to match a later point. Dropping a directive
// therefore degrades that one decision to canonical instead of
// desynchronizing the whole tail — the property the counterexample
// shrinker leans on.
type ReplaySched struct {
	directives []Action
	next       int
	// Matched counts directives consumed; Canonical counts decision
	// points resolved by default. Matched == len(directives) after a
	// faithful replay.
	Matched   int
	Canonical int
}

// NewReplay returns a scheduler replaying the given directives.
// Directives are typically the picked actions of a recorded run:
// PickedActions(steps).
func NewReplay(directives []Action) *ReplaySched {
	return &ReplaySched{directives: directives}
}

// Pick implements Scheduler.
func (s *ReplaySched) Pick(d Decision) int {
	if s.next < len(s.directives) {
		want := s.directives[s.next]
		for i, a := range d.Enabled {
			if want.Same(a) {
				s.next++
				s.Matched++
				return i
			}
		}
	}
	s.Canonical++
	return 0
}

// PickedActions extracts a run's directives — the action picked at
// each recorded decision — for replay or shrinking.
func PickedActions(steps []Step) []Action {
	out := make([]Action, 0, len(steps))
	for _, st := range steps {
		if st.Picked >= 0 && st.Picked < len(st.Enabled) {
			out = append(out, st.Enabled[st.Picked])
		}
	}
	return out
}

// sortActions orders enabled actions canonically: deliveries by
// (queue kind, node, bit, sender) first, empties last. The canonical
// choice 0 is therefore stable across re-executions of the same prefix.
func sortActions(as []Action) {
	sort.Slice(as, func(i, j int) bool {
		a, b := as[i], as[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind // ActDeliver=1 before ActEmpty=2
		}
		if a.Queue.Kind != b.Queue.Kind {
			return a.Queue.Kind < b.Queue.Kind
		}
		if a.Queue.Node != b.Queue.Node {
			return a.Queue.Node < b.Queue.Node
		}
		if a.Queue.Bit != b.Queue.Bit {
			return a.Queue.Bit < b.Queue.Bit
		}
		return a.From < b.From
	})
}
