package forensic

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/wire"
)

func TestPredRoundTrip(t *testing.T) {
	for _, code := range []uint8{PredProgress, PredFeasibility, PredConsistency, PredProtocol, PredQuarantine} {
		name := PredName(code)
		if name == "" || name == "unknown" {
			t.Errorf("code %d has no name", code)
		}
		if got := PredCode(name); got != code {
			t.Errorf("PredCode(%q) = %d, want %d", name, got, code)
		}
	}
	if PredCode("bogus") != PredNone {
		t.Error("unknown name should map to PredNone")
	}
	if PredName(PredNone) != "" {
		t.Error("PredNone should render empty")
	}
}

func TestNilRecorderDiscards(t *testing.T) {
	var r *Recorder
	tc := r.Send(wire.KindExchange, 1, 0, 0, 10)
	if tc != (wire.TraceContext{}) {
		t.Errorf("nil Send returned %+v, want zero context", tc)
	}
	r.Recv(&wire.Message{}, 10)
	r.Phi(PredProgress, 0, 0, true, wire.Digest{}, 10)
	r.Merge(0, 0, 3, wire.Digest{}, 10)
	if rep := r.Accuse(PredProgress, 0, 0, 0, -1, "x", 10); rep != nil {
		t.Error("nil Accuse should return nil report")
	}
	if r.Len() != 0 {
		t.Error("nil recorder should be inert")
	}
	var f *Flight
	if f.Node(0) != nil || f.Latest() != nil || f.Reports() != nil {
		t.Error("nil flight should be inert")
	}
	if rep := f.Quarantine(1, 0, "x"); rep != nil {
		t.Error("nil Quarantine should return nil report")
	}
	f.Reset()
}

func TestRingWrapAndDropped(t *testing.T) {
	f := New(4)
	rec := f.Node(0)
	for i := 0; i < 10; i++ {
		rec.Phi(PredProgress, int32(i), 0, true, wire.Digest{}, int64(i))
	}
	if rec.Len() != 10 {
		t.Fatalf("Len = %d, want 10", rec.Len())
	}
	rep := rec.Accuse(PredProgress, 0, 9, 0, -1, "wrap", 10)
	if rep == nil || len(rep.Nodes) != 1 {
		t.Fatalf("expected a single-node report, got %+v", rep)
	}
	log := rep.Nodes[0]
	// 11 events through a 4-slot ring: 7 dropped, snapshot holds the
	// newest 4 (seqs 7..10), oldest first.
	if log.Dropped != 7 {
		t.Errorf("Dropped = %d, want 7", log.Dropped)
	}
	if len(log.Events) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(log.Events))
	}
	for i, h := range log.Events {
		if want := uint64(7 + i); h.ID.Seq() != want {
			t.Errorf("snapshot[%d] seq = %d, want %d (oldest-first order broken)", i, h.ID.Seq(), want)
		}
	}
	if log.Events[3].Kind != "accuse" {
		t.Errorf("newest snapshot event is %q, want the accusation", log.Events[3].Kind)
	}
}

// TestChainCrossesWire pins the tentpole property: an accusation's
// chain follows the local Parent edge to the received message, then the
// Remote edge across the wire to the sender's send event.
func TestChainCrossesWire(t *testing.T) {
	f := New(0)
	sender, recver := f.Node(1), f.Node(0)

	sender.Phi(PredProgress, 0, 0, true, wire.Digest{}, 5)
	tc := sender.Send(wire.KindExchange, 0, 2, 1, 10)
	if tc.Origin != 1 || tc.Parent == 0 {
		t.Fatalf("send context %+v: want origin 1 and a parent edge", tc)
	}
	m := &wire.Message{Kind: wire.KindExchange, From: 1, To: 0, Stage: 2, Iter: 1, Trace: tc}
	recver.Recv(m, 12)
	rep := recver.Accuse(PredConsistency, 1, 2, 1, 1, "digest mismatch", 15)
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Accuser != 0 || rep.Accused != 1 || rep.Predicate != "consistency" {
		t.Fatalf("report header = accuser %d accused %d pred %q", rep.Accuser, rep.Accused, rep.Predicate)
	}
	kinds := make([]string, len(rep.Chain))
	nodes := make([]int32, len(rep.Chain))
	for i, h := range rep.Chain {
		kinds[i], nodes[i] = h.Kind, h.Node
	}
	// accuse(0) -> recv(0) -> send(1) -> phi(1): newest first, hopping
	// nodes at the recv→send edge.
	want := []string{"accuse", "recv", "send", "phi"}
	wantNodes := []int32{0, 0, 1, 1}
	if len(kinds) != len(want) {
		t.Fatalf("chain kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] || nodes[i] != wantNodes[i] {
			t.Fatalf("chain = %v on nodes %v, want %v on %v", kinds, nodes, want, wantNodes)
		}
	}
	if rep.ChainTruncated {
		t.Error("chain should be complete")
	}
	if f.Latest() != rep || len(f.Reports()) != 1 {
		t.Error("report not retained by the flight")
	}
}

func TestChainTruncatedOnEvictedEdge(t *testing.T) {
	f := New(2)
	sender, recver := f.Node(1), f.Node(0)
	tc := sender.Send(wire.KindExchange, 0, 0, 0, 1)
	// Push the send event out of the sender's 2-slot ring.
	for i := 0; i < 4; i++ {
		sender.Phi(PredProgress, 0, int32(i), true, wire.Digest{}, int64(2+i))
	}
	m := &wire.Message{Kind: wire.KindExchange, From: 1, Trace: tc}
	recver.Recv(m, 8)
	rep := recver.Accuse(PredFeasibility, 0, 0, 0, 1, "evicted", 9)
	if !rep.ChainTruncated {
		t.Error("walk into an overwritten ring slot must mark the chain truncated")
	}
	if len(rep.Chain) != 2 { // accuse + recv; the send edge is gone
		t.Errorf("chain length %d, want 2", len(rep.Chain))
	}
}

func TestQuarantineReport(t *testing.T) {
	f := New(0)
	f.Node(3).Phi(PredProgress, 0, 0, false, wire.Digest{}, 1)
	rep := f.Quarantine(3, 2, "persistent accusation streak")
	if rep == nil {
		t.Fatal("no report")
	}
	if rep.Accuser != wire.HostID || rep.Accused != 3 || rep.Predicate != "quarantine" || rep.Iter != 2 {
		t.Fatalf("quarantine report header: %+v", rep)
	}
	if len(rep.Nodes) != 2 { // node 3 and the host ring
		t.Fatalf("snapshot covers %d rings, want 2", len(rep.Nodes))
	}
}

func TestReportJSON(t *testing.T) {
	f := New(0)
	rep := f.Node(0).Accuse(PredProtocol, 2, 1, 0, -1, "shape", 3)
	buf, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"predicate": "protocol"`, `"accused": -1`, `"chain"`} {
		if !bytes.Contains(buf, []byte(want)) {
			t.Errorf("JSON missing %q:\n%s", want, buf)
		}
	}
}

// recordExchange records one traced exchange from node a to node b,
// then b's predicate evaluation, merge and accusation of a.
func recordExchange(f *Flight, a, b int) *Report {
	from, to := f.Node(a), f.Node(b)
	from.Phi(PredProgress, 0, 0, true, wire.Digest{Sum: 3}, 5)
	tc := from.Send(wire.KindExchange, int32(b), 1, 0, 10)
	m := &wire.Message{Kind: wire.KindExchange, From: int32(a), To: int32(b), Stage: 1, Iter: 0, Trace: tc}
	to.Recv(m, 12)
	to.Merge(1, 0, 7, wire.Digest{Sum: 9, Xor: 4}, 14)
	to.Phi(PredConsistency, 1, 0, false, wire.Digest{Sum: 9}, 15)
	return to.Accuse(PredConsistency, 1, 1, 0, int32(a), "copies differ", 16)
}

// TestResetFlightReportsLikeNew pins that a reset flight reports
// exactly what a fresh one does: no rings or reports left from the
// earlier run, ids and drop counts restarting at zero.
func TestResetFlightReportsLikeNew(t *testing.T) {
	fresh := New(4)
	recordExchange(fresh, 1, 2)
	fresh.Quarantine(1, 1, "persistent")

	used := New(4)
	for id := 0; id < 8; id++ {
		for i := 0; i < 6; i++ { // wraps each 4-slot ring
			used.Node(id).Phi(PredProgress, int32(i), 0, true, wire.Digest{}, int64(i))
		}
	}
	recordExchange(used, 3, 5)
	used.Reset()
	if len(used.Reports()) != 0 || used.Latest() != nil {
		t.Fatal("Reset kept the earlier run's reports")
	}
	recordExchange(used, 1, 2)
	used.Quarantine(1, 1, "persistent")

	want, got := fresh.Reports(), used.Reports()
	if len(got) != 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("reset flight reports differ from a fresh flight's:\ngot  %+v\nwant %+v", got, want)
	}
	if nodes := len(got[1].Nodes); nodes != 3 { // nodes 1, 2 and the host
		t.Errorf("quarantine report snapshots %d rings, want 3", nodes)
	}
}

// TestRecorderZeroAllocs pins recording and Reset at zero allocations
// once each node's ring exists: a flight reused across runs allocates
// nothing until a dump.
func TestRecorderZeroAllocs(t *testing.T) {
	f := New(16)
	m := &wire.Message{Kind: wire.KindExchange, From: 0, To: 1}
	run := func() {
		a, b := f.Node(0), f.Node(1)
		m.Trace = a.Send(wire.KindExchange, 1, 2, 0, 10)
		b.Recv(m, 12)
		b.Phi(PredProgress, 2, 0, true, wire.Digest{Sum: 1}, 13)
		b.Merge(2, 0, 5, wire.Digest{Sum: 2}, 14)
		f.Reset()
	}
	for i := 0; i < 8; i++ {
		run()
	}
	if n := testing.AllocsPerRun(200, run); n != 0 {
		t.Fatalf("record and Reset: %v allocs/op, want 0", n)
	}
}
