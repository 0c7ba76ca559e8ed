package forensic

import (
	"encoding/json"
	"sort"

	"repro/internal/wire"
)

// Hop is one event on a reconstructed causal chain (or in a ring
// snapshot), rendered with names instead of raw codes so dumps are
// self-describing.
type Hop struct {
	Node      int32        `json:"node"`
	Kind      string       `json:"kind"`
	ID        wire.EventID `json:"id"`
	Parent    wire.EventID `json:"parent,omitempty"`
	Remote    wire.EventID `json:"remote,omitempty"`
	Peer      int32        `json:"peer"`
	Stage     int32        `json:"stage"`
	Iter      int32        `json:"iter"`
	MsgKind   string       `json:"msg_kind,omitempty"`
	Predicate string       `json:"predicate,omitempty"`
	Pass      bool         `json:"pass,omitempty"`
	VTicks    int64        `json:"vticks"`
	DigSum    uint64       `json:"dig_sum,omitempty"`
	DigXor    uint64       `json:"dig_xor,omitempty"`
	Aux       int64        `json:"aux,omitempty"`
}

// hopOf renders a Record as a Hop.
func hopOf(rec Record) Hop {
	h := Hop{
		Node:   rec.Node,
		Kind:   rec.Kind.String(),
		ID:     rec.ID,
		Parent: rec.Parent,
		Remote: rec.Remote,
		Peer:   rec.Peer,
		Stage:  rec.Stage,
		Iter:   rec.Iter,
		Pass:   rec.Pass,
		VTicks: rec.VTicks,
		DigSum: rec.Dig.Sum,
		DigXor: rec.Dig.Xor,
		Aux:    rec.Aux,
	}
	if rec.MsgKind != 0 {
		h.MsgKind = rec.MsgKind.String()
	}
	if rec.Pred != PredNone {
		h.Predicate = PredName(rec.Pred)
	}
	return h
}

// NodeLog is one node's ring snapshot inside a Report, oldest first.
type NodeLog struct {
	Node    int32  `json:"node"`
	Dropped uint64 `json:"dropped"`
	Events  []Hop  `json:"events"`
}

// Report is one forensic dump: everything needed to explain (and
// replay) an accusation. Chain is the happens-before lineage, newest
// first: the accusation itself, then backwards through local Parent
// edges and cross-wire Remote edges toward the offending message's
// origin. Nodes holds the full ring snapshots the chain was
// reconstructed from, for side-by-side accused-vs-honest diffs.
type Report struct {
	// Seq numbers reports within a Flight in occurrence order.
	Seq int `json:"seq"`
	// Accuser raised the accusation (wire.HostID for supervisor-level
	// quarantines); Accused is the implicated node, -1 when none.
	Accuser   int32  `json:"accuser"`
	Accused   int32  `json:"accused"`
	Predicate string `json:"predicate"`
	// EvidenceKind is the structured evidence class (core.ErrorKind as
	// a raw byte: value, absence, shape).
	EvidenceKind uint8  `json:"evidence_kind"`
	Stage        int32  `json:"stage"`
	Iter         int32  `json:"iter"`
	Detail       string `json:"detail,omitempty"`
	VTicks       int64  `json:"vticks"`
	Chain        []Hop  `json:"chain"`
	// ChainTruncated reports that the walk hit an event the bounded
	// rings had already overwritten (or the chain-length cap).
	ChainTruncated bool      `json:"chain_truncated,omitempty"`
	Nodes          []NodeLog `json:"nodes"`
}

// JSON renders the report as indented JSON.
func (r *Report) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// maxChain bounds the reconstructed happens-before chain. Lineage past
// this depth is protocol history, not evidence.
const maxChain = 64

// dump snapshots every ring and reconstructs the chain ending at
// accusation event id on the accuser's ring.
func (f *Flight) dump(accuser, accused int32, id wire.EventID, pred, evidence uint8, stage, iter int32, detail string, vticks int64) *Report {
	rep := &Report{
		Accuser:      accuser,
		Accused:      accused,
		Predicate:    PredName(pred),
		EvidenceKind: evidence,
		Stage:        stage,
		Iter:         iter,
		Detail:       detail,
		VTicks:       vticks,
	}

	// Snapshot all rings. Records causally prior to the accusation are
	// visible: a traced send is recorded before the packet enters the
	// link channel, and the channel receive happens-before the
	// accuser's decode, so every cross-wire edge the walk follows
	// resolves unless the bounded ring has already overwritten it.
	f.mu.Lock()
	ids := make([]int32, 0, len(f.recs))
	for nid, r := range f.recs {
		if r.live {
			ids = append(ids, nid)
		}
	}
	f.mu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	index := make(map[wire.EventID]Record)
	for _, nid := range ids {
		r := f.Node(int(nid))
		r.mu.Lock()
		log := NodeLog{Node: nid, Dropped: r.dropped, Events: make([]Hop, 0, len(r.ring))}
		start := uint64(0)
		if r.dropped > 0 {
			start = r.next % uint64(cap(r.ring))
		}
		for i := 0; i < len(r.ring); i++ {
			rec := r.ring[(start+uint64(i))%uint64(len(r.ring))]
			log.Events = append(log.Events, hopOf(rec))
			index[rec.ID] = rec
		}
		r.mu.Unlock()
		rep.Nodes = append(rep.Nodes, log)
	}

	// Walk backwards from the accusation: prefer the cross-wire edge
	// (Remote: jump to the sender of the message just accepted), else
	// the local predecessor (Parent).
	cur, ok := index[id]
	for ok {
		rep.Chain = append(rep.Chain, hopOf(cur))
		if len(rep.Chain) >= maxChain {
			rep.ChainTruncated = true
			break
		}
		next := cur.Remote
		if next == 0 {
			next = cur.Parent
		}
		if next == 0 {
			break
		}
		cur, ok = index[next]
		if !ok {
			rep.ChainTruncated = true
		}
	}

	f.mu.Lock()
	rep.Seq = len(f.reports)
	f.reports = append(f.reports, rep)
	f.mu.Unlock()
	return rep
}
