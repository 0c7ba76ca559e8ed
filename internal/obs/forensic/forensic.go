// Package forensic is the causal evidence layer under the constraint
// predicates: a per-node bounded flight recorder plus the machinery to
// turn an accusation into a replayable happens-before chain.
//
// Every message sent through a traced transport carries a 16-byte
// causal trailer (wire.TraceContext) naming the send event and the
// sender's previous event. Each node (and the host) owns a Recorder —
// a fixed-capacity ring of fixed-size Records, appended with the same
// zero-allocation discipline as the obs journal — logging sends,
// receives, predicate evaluations, merge-splits, and accusations. When
// a predicate fails (or the recovery supervisor quarantines), the
// Flight snapshots every ring and walks the causal links backwards
// from the accusation — local Parent edges within a node, Remote edges
// across the wire — into a Report: accused node, violated predicate,
// and the offending message's lineage back toward its origin with
// per-hop digests and virtual times.
//
// The trailer is excluded from cost charging and byte metrics at every
// transport (wire.CostedLen), so attaching a Flight never perturbs the
// virtual-time series; the equivalence test in internal/experiments
// pins this bit-identically against BENCH_PR7.json.
package forensic

import (
	"sync"

	"repro/internal/wire"
)

// EventKind discriminates flight-recorder records.
type EventKind uint8

// Record kinds.
const (
	EvNone EventKind = iota
	// EvSend: a message left this node; ID doubles as the wire trace id.
	EvSend
	// EvRecv: a message was accepted; Remote names the sender's send event.
	EvRecv
	// EvPhi: a constraint predicate was evaluated (Pred, Pass).
	EvPhi
	// EvMerge: a merge-split or view merge ran (Aux = comparisons).
	EvMerge
	// EvAccuse: a predicate failure was turned into an ERROR signal.
	EvAccuse
	// EvQuarantine: the recovery supervisor quarantined a node.
	EvQuarantine
)

var evNames = [...]string{
	EvNone:       "none",
	EvSend:       "send",
	EvRecv:       "recv",
	EvPhi:        "phi",
	EvMerge:      "merge-split",
	EvAccuse:     "accuse",
	EvQuarantine: "quarantine",
}

// String returns the lowercase name of the kind.
func (k EventKind) String() string {
	if int(k) < len(evNames) {
		return evNames[k]
	}
	return "invalid"
}

// Predicate codes carried in Records. These mirror the wire-level
// predicate names produced by core.PredicateName; the wire strings are
// the source of truth and PredCode/PredName convert.
const (
	PredNone uint8 = iota
	PredProgress
	PredFeasibility
	PredConsistency
	PredProtocol
	// PredQuarantine marks supervisor-level quarantine reports, which
	// accuse by diagnosis rank rather than by a single predicate.
	PredQuarantine
)

var predNames = [...]string{
	PredNone:        "",
	PredProgress:    "progress",
	PredFeasibility: "feasibility",
	PredConsistency: "consistency",
	PredProtocol:    "protocol",
	PredQuarantine:  "quarantine",
}

// PredName returns the wire name of a predicate code.
func PredName(code uint8) string {
	if int(code) < len(predNames) {
		return predNames[code]
	}
	return "unknown"
}

// PredCode returns the code of a wire predicate name, PredNone if
// unrecognized.
func PredCode(name string) uint8 {
	for c, n := range predNames {
		if n == name && c != int(PredNone) {
			return uint8(c)
		}
	}
	return PredNone
}

// Record is one fixed-size flight-recorder entry. Field meaning varies
// by Kind; unused fields are zero.
type Record struct {
	// ID names this event; Parent is the node's previous event (the
	// local happens-before edge), Remote the cross-wire edge (the
	// sender's send event, for EvRecv only).
	ID     wire.EventID
	Parent wire.EventID
	Remote wire.EventID
	Kind   EventKind
	// Node is the owning node label (wire.HostID for the host); Peer
	// the other end of a send/recv, or the accused for EvAccuse.
	Node int32
	Peer int32
	// Stage and Iter locate the protocol step.
	Stage int32
	Iter  int32
	// MsgKind is the wire kind of send/recv events.
	MsgKind wire.Kind
	// Pred and Pass describe predicate evaluations and accusations.
	Pred uint8
	Pass bool
	// VTicks is the node's virtual clock when the event was recorded.
	VTicks int64
	// Dig carries a view digest where the event has one (merges, phi
	// evaluations over views); zero elsewhere.
	Dig wire.Digest
	// Aux is kind-specific (merge comparisons, evidence class for
	// accusations).
	Aux int64
}

// DefaultRingCap is the per-node ring capacity when Flight is created
// with cap <= 0: enough for several stages of a dim-5 cube's sends,
// receives, and predicate evaluations.
const DefaultRingCap = 512

// Recorder is one node's bounded flight recorder. Methods are safe for
// concurrent use (scrapes snapshot rings while node goroutines append)
// and allocation-free after construction; a nil *Recorder discards
// everything, so untraced runs pay a single pointer test per event.
type Recorder struct {
	flight *Flight
	node   int32
	// live marks a recorder handed out by Node since the flight's last
	// Reset; dumps snapshot live recorders only. Guarded by flight.mu.
	live bool

	mu      sync.Mutex
	ring    []Record
	next    uint64 // total events ever recorded; seq of the next event
	dropped uint64
	last    wire.EventID
}

// append stamps and stores rec, returning its id and the id of the
// node's previous event. Caller must not hold mu.
func (r *Recorder) append(rec Record) (id, parent wire.EventID) {
	r.mu.Lock()
	rec.ID = wire.MakeEventID(r.node, r.next)
	rec.Parent = r.last
	rec.Node = r.node
	if len(r.ring) < cap(r.ring) {
		r.ring = append(r.ring, rec)
	} else {
		// Ring full: overwrite the oldest slot.
		r.ring[r.next%uint64(cap(r.ring))] = rec
		r.dropped++
	}
	r.next++
	parent = r.last
	r.last = rec.ID
	r.mu.Unlock()
	return rec.ID, parent
}

// Node returns the owning node label (wire.HostID for the host).
func (r *Recorder) Node() int32 {
	if r == nil {
		return wire.HostID
	}
	return r.node
}

// Len returns the number of events recorded so far (including any that
// the ring has since overwritten). Nil-safe.
func (r *Recorder) Len() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.next
}

// Send records a message departure and returns the causal trailer to
// stamp on the wire: the send event's identity plus the node's
// previous event. Nil recorders return the zero (untraced) context.
func (r *Recorder) Send(kind wire.Kind, peer, stage, iter int32, vticks int64) wire.TraceContext {
	if r == nil {
		return wire.TraceContext{}
	}
	id, parent := r.append(Record{
		Kind: EvSend, Peer: peer, Stage: stage, Iter: iter,
		MsgKind: kind, VTicks: vticks,
	})
	return wire.TraceContext{Origin: r.node, Seq: uint32(id.Seq()), Parent: parent}
}

// Recv records a message acceptance, linking it to the sender's send
// event via the message's trace trailer. Nil-safe.
func (r *Recorder) Recv(m *wire.Message, vticks int64) {
	if r == nil {
		return
	}
	r.append(Record{
		Kind: EvRecv, Peer: m.From, Stage: m.Stage, Iter: m.Iter,
		MsgKind: m.Kind, Remote: m.Trace.ID(), VTicks: vticks,
	})
}

// Phi records a constraint-predicate evaluation. Nil-safe.
func (r *Recorder) Phi(pred uint8, stage, iter int32, pass bool, dig wire.Digest, vticks int64) {
	if r == nil {
		return
	}
	r.append(Record{
		Kind: EvPhi, Pred: pred, Stage: stage, Iter: iter, Pass: pass,
		Dig: dig, VTicks: vticks,
	})
}

// Merge records a merge-split or view merge with its comparison count
// and the resulting view digest. Nil-safe.
func (r *Recorder) Merge(stage, iter int32, compares int64, dig wire.Digest, vticks int64) {
	if r == nil {
		return
	}
	r.append(Record{
		Kind: EvMerge, Stage: stage, Iter: iter, Aux: compares,
		Dig: dig, VTicks: vticks,
	})
}

// Accuse records that a predicate failure became an ERROR signal and
// triggers a forensic dump: the flight snapshots every ring and
// reconstructs the happens-before chain ending here. It returns the
// report (nil from a nil recorder). evidence is the structured
// evidence class (core.ErrorKind as a raw byte); accused is -1 when
// the evidence implicates nobody.
func (r *Recorder) Accuse(pred uint8, evidence uint8, stage, iter, accused int32, detail string, vticks int64) *Report {
	if r == nil {
		return nil
	}
	id, _ := r.append(Record{
		Kind: EvAccuse, Pred: pred, Peer: accused, Stage: stage, Iter: iter,
		Aux: int64(evidence), VTicks: vticks,
	})
	return r.flight.dump(r.node, accused, id, pred, evidence, stage, iter, detail, vticks)
}

// Flight is the run-wide forensic context: one Recorder per node plus
// the accumulated reports. Attach the same Flight to the transport
// (simnet/tcpnet Config.Flight) and to each node's protocol options so
// transport-level send/recv events and protocol-level predicate events
// land in the same rings.
type Flight struct {
	ringCap int

	mu sync.Mutex
	// recs holds every recorder the flight has made, live or not, so
	// that after a Reset a node id gets its old ring array back.
	recs    map[int32]*Recorder
	reports []*Report
}

// New creates a Flight whose per-node rings hold ringCap records each
// (DefaultRingCap if <= 0).
func New(ringCap int) *Flight {
	if ringCap <= 0 {
		ringCap = DefaultRingCap
	}
	return &Flight{ringCap: ringCap, recs: make(map[int32]*Recorder)}
}

// Node returns node id's recorder, creating it on first use. Safe for
// concurrent use; nil Flights return nil recorders (which discard).
func (f *Flight) Node(id int) *Recorder {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.nodeLocked(int32(id))
}

func (f *Flight) nodeLocked(id int32) *Recorder {
	r := f.recs[id]
	if r == nil {
		r = &Recorder{flight: f, node: id, ring: make([]Record, 0, f.ringCap)}
		f.recs[id] = r
	}
	r.live = true
	return r
}

// Reset empties the flight for reuse, so that it reports exactly what
// a new Flight would: it drops the reports, empties every live ring,
// and forgets which nodes have one. Each ring keeps its array for the
// next Node call with the same id, and no memory is cleared, so a
// reset costs one step per recorder the last run used, not the rings'
// capacity. Call it only while no recorder is being written. Nil-safe.
func (f *Flight) Reset() {
	if f == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.reports = nil
	for _, r := range f.recs {
		if !r.live {
			continue
		}
		r.live = false
		r.mu.Lock()
		r.ring, r.next, r.dropped, r.last = r.ring[:0], 0, 0, 0
		r.mu.Unlock()
	}
}

// Host returns the host processor's recorder (node label wire.HostID).
func (f *Flight) Host() *Recorder { return f.Node(int(wire.HostID)) }

// Quarantine records a supervisor-level quarantine on the host ring
// and dumps a report accusing the culprit. attempt is carried as the
// report's Iter. Nil-safe.
func (f *Flight) Quarantine(culprit, attempt int, detail string) *Report {
	if f == nil {
		return nil
	}
	h := f.Host()
	id, _ := h.append(Record{
		Kind: EvQuarantine, Pred: PredQuarantine, Peer: int32(culprit),
		Iter: int32(attempt),
	})
	return f.dump(wire.HostID, int32(culprit), id, PredQuarantine, 0, -1, int32(attempt), detail, 0)
}

// Reports returns the accumulated forensic reports in occurrence order.
func (f *Flight) Reports() []*Report {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*Report, len(f.reports))
	copy(out, f.reports)
	return out
}

// Latest returns the most recent report, nil if none.
func (f *Flight) Latest() *Report {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.reports) == 0 {
		return nil
	}
	return f.reports[len(f.reports)-1]
}
