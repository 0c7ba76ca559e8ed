package simnet

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/wire"
)

func newNet(t *testing.T, dim int) *Network {
	t.Helper()
	nw, err := New(Config{Dim: dim, RecvTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: -1}); err == nil {
		t.Error("negative dim: want error")
	}
	nw, err := New(Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Topology().Nodes() != 4 {
		t.Errorf("Nodes = %d, want 4", nw.Topology().Nodes())
	}
	if nw.Cost() != DefaultCostModel() {
		t.Error("zero cost config should yield default cost model")
	}
}

func TestEndpointValidation(t *testing.T) {
	nw := newNet(t, 2)
	if _, err := nw.Endpoint(4); err == nil {
		t.Error("Endpoint(4) on 4-node cube: want error")
	}
	ep, err := nw.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if ep.ID() != 0 {
		t.Errorf("ID = %d", ep.ID())
	}
}

func TestSendRecvAcrossLink(t *testing.T) {
	nw := newNet(t, 3)
	a, _ := nw.Endpoint(2)
	b, _ := nw.Endpoint(3) // partner across bit 0

	var wg sync.WaitGroup
	wg.Add(1)
	var got wire.Message
	var recvErr error
	go func() {
		defer wg.Done()
		got, recvErr = b.Recv(0)
	}()
	msg := wire.Message{Kind: wire.KindExchange, Stage: 1, Iter: 0,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{99}})}
	if err := a.Send(0, msg); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if recvErr != nil {
		t.Fatal(recvErr)
	}
	if got.From != 2 || got.To != 3 || got.Stage != 1 {
		t.Fatalf("header = %+v", got)
	}
	p, err := wire.DecodeExchange(got.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if p.Keys[0] != 99 {
		t.Fatalf("key = %d", p.Keys[0])
	}
}

func TestVirtualClockAdvances(t *testing.T) {
	nw := newNet(t, 1)
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	cost := nw.Cost()

	msg := wire.Message{Kind: wire.KindExchange,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{1}})}
	if err := a.Send(0, msg); err != nil {
		t.Fatal(err)
	}
	raw, _ := wire.Encode(wire.Message{Kind: wire.KindExchange, From: 0, To: 1,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{1}})})
	wantSend := cost.SendFixed + Ticks(wire.CostedLen(len(raw)))*cost.SendPerByte
	if a.Clock() != wantSend {
		t.Errorf("sender clock = %d, want %d", a.Clock(), wantSend)
	}
	if a.CommTicks() != wantSend {
		t.Errorf("sender comm = %d, want %d", a.CommTicks(), wantSend)
	}

	if _, err := b.Recv(0); err != nil {
		t.Fatal(err)
	}
	wantRecvStart := wantSend + cost.Latency // receiver idles until arrival
	wantRecv := wantRecvStart + cost.RecvFixed + Ticks(wire.CostedLen(len(raw)))*cost.RecvPerByte
	if b.Clock() != wantRecv {
		t.Errorf("receiver clock = %d, want %d", b.Clock(), wantRecv)
	}
	// Idle waiting is not billed as comm.
	if b.CommTicks() != cost.RecvFixed+Ticks(wire.CostedLen(len(raw)))*cost.RecvPerByte {
		t.Errorf("receiver comm = %d", b.CommTicks())
	}
}

func TestComputeCharges(t *testing.T) {
	nw := newNet(t, 1)
	ep, _ := nw.Endpoint(0)
	ep.Compute(50)
	ep.ChargeCompare(3)
	ep.ChargeKeyMove(7)
	want := Ticks(50) + 3*nw.Cost().Compare + 7*nw.Cost().KeyMove
	if ep.Clock() != want || ep.CompTicks() != want {
		t.Errorf("clock=%d comp=%d, want %d", ep.Clock(), ep.CompTicks(), want)
	}
	ep.Compute(-5) // negative cost clamps to zero
	if ep.Clock() != want {
		t.Errorf("negative compute changed clock to %d", ep.Clock())
	}
}

func TestRecvTimeoutIsAbsence(t *testing.T) {
	nw, err := New(Config{Dim: 1, RecvTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := nw.Endpoint(0)
	_, err = ep.Recv(0)
	if !errors.Is(err, ErrAbsent) {
		t.Fatalf("want ErrAbsent, got %v", err)
	}
	if _, err := ep.Recv(5); err == nil {
		t.Error("Recv on invalid bit: want error")
	}
}

func TestHostRoundTrip(t *testing.T) {
	nw := newNet(t, 2)
	ep, _ := nw.Endpoint(3)
	h := nw.Host()

	if err := ep.SendHost(wire.Message{Kind: wire.KindHostUpload,
		Payload: wire.EncodeHost(wire.HostPayload{Keys: []int64{5}})}); err != nil {
		t.Fatal(err)
	}
	m, err := h.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 3 || m.To != wire.HostID {
		t.Fatalf("host got %+v", m)
	}
	if err := h.Send(3, wire.Message{Kind: wire.KindHostDownload,
		Payload: wire.EncodeHost(wire.HostPayload{Keys: []int64{6}})}); err != nil {
		t.Fatal(err)
	}
	back, err := ep.RecvHost()
	if err != nil {
		t.Fatal(err)
	}
	if back.From != wire.HostID || back.Kind != wire.KindHostDownload {
		t.Fatalf("node got %+v", back)
	}
	if h.Clock() == 0 || h.CommTicks() == 0 {
		t.Error("host clocks did not advance")
	}
	h.Compute(10)
	h.ChargeCompare(1)
	h.ChargeKeyMove(1)
	if h.CompTicks() != 10+nw.Cost().Compare+nw.Cost().KeyMove {
		t.Errorf("host comp = %d", h.CompTicks())
	}
	if err := h.Send(99, wire.Message{Kind: wire.KindHostDownload}); err == nil {
		t.Error("host send to invalid node: want error")
	}
}

func TestHostTryRecv(t *testing.T) {
	nw := newNet(t, 1)
	h := nw.Host()
	if _, ok, err := h.TryRecv(); ok || err != nil {
		t.Fatalf("empty TryRecv: ok=%v err=%v", ok, err)
	}
	ep, _ := nw.Endpoint(0)
	if err := ep.SendHost(wire.Message{Kind: wire.KindError,
		Payload: wire.EncodeError(wire.ErrorPayload{Predicate: "progress"})}); err != nil {
		t.Fatal(err)
	}
	m, ok, err := h.TryRecv()
	if err != nil || !ok {
		t.Fatalf("TryRecv: ok=%v err=%v", ok, err)
	}
	if m.Kind != wire.KindError {
		t.Fatalf("kind = %v", m.Kind)
	}
}

// The host link carries every job's upload, download and ERROR signal.
// Its steady state, counted into an obs registry and traced into a
// flight recorder past ring wrap, must not allocate.
func TestHostLinkZeroAllocs(t *testing.T) {
	o := obs.New(obs.NewRegistry(), 0)
	nw, err := New(Config{Dim: 1, RecvTimeout: time.Second, Obs: o.Metrics(), Flight: forensic.New(64)})
	if err != nil {
		t.Fatal(err)
	}
	ep, _ := nw.Endpoint(1)
	h := nw.Host()
	up := wire.Message{Kind: wire.KindHostUpload, Payload: wire.EncodeHost(wire.HostPayload{Keys: []int64{5}})}
	down := wire.Message{Kind: wire.KindHostDownload, Payload: wire.EncodeHost(wire.HostPayload{Keys: []int64{6}})}
	step := func() {
		if err := ep.SendHost(up); err != nil {
			t.Fatal(err)
		}
		if _, err := h.Recv(); err != nil {
			t.Fatal(err)
		}
		if err := h.Send(1, down); err != nil {
			t.Fatal(err)
		}
		if _, err := ep.RecvHost(); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := h.TryRecv(); ok || err != nil {
			t.Fatalf("empty TryRecv: ok=%v err=%v", ok, err)
		}
	}
	for i := 0; i < 80; i++ {
		step()
	}
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Fatalf("host link round trip: %v allocs/op, want 0", n)
	}
}

func TestMetricsCountTraffic(t *testing.T) {
	nw := newNet(t, 1)
	a, _ := nw.Endpoint(0)
	msg := wire.Message{Kind: wire.KindExchange,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{1, 2}})}
	for i := 0; i < 3; i++ {
		if err := a.Send(0, msg); err != nil {
			t.Fatal(err)
		}
	}
	snap := nw.Metrics()
	if snap.MsgsByKind[wire.KindExchange] != 3 {
		t.Errorf("msg count = %d, want 3", snap.MsgsByKind[wire.KindExchange])
	}
	raw, _ := wire.Encode(wire.Message{Kind: wire.KindExchange, From: 0, To: 1, Payload: msg.Payload})
	wantBytes := wire.CostedLen(len(raw))
	if snap.BytesByKind[wire.KindExchange] != int64(3*wantBytes) {
		t.Errorf("byte count = %d, want %d", snap.BytesByKind[wire.KindExchange], 3*wantBytes)
	}
	if snap.TotalMsgs() != 3 || snap.TotalBytes() != int64(3*wantBytes) {
		t.Errorf("totals = %d msgs / %d bytes", snap.TotalMsgs(), snap.TotalBytes())
	}
}

type dropFault struct{}

func (dropFault) Apply([]byte) [][]byte { return nil }

type dupFault struct{}

func (dupFault) Apply(raw []byte) [][]byte { return [][]byte{raw, raw} }

type flipFault struct{ off int }

func (f flipFault) Apply(raw []byte) [][]byte {
	out := make([]byte, len(raw))
	copy(out, raw)
	if f.off < len(out) {
		out[f.off] ^= 0xFF
	}
	return [][]byte{out}
}

func TestLinkFaultDrop(t *testing.T) {
	nw, err := New(Config{Dim: 1, RecvTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallLinkFault(0, 1, dropFault{}); err != nil {
		t.Fatal(err)
	}
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	if err := a.Send(0, wire.Message{Kind: wire.KindExchange, Payload: wire.EncodeExchange(wire.ExchangePayload{})}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(0); !errors.Is(err, ErrAbsent) {
		t.Fatalf("want ErrAbsent after drop, got %v", err)
	}
}

func TestLinkFaultDuplicate(t *testing.T) {
	nw := newNet(t, 1)
	if err := nw.InstallLinkFault(0, 1, dupFault{}); err != nil {
		t.Fatal(err)
	}
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	if err := a.Send(0, wire.Message{Kind: wire.KindExchange, Payload: wire.EncodeExchange(wire.ExchangePayload{})}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := b.Recv(0); err != nil {
			t.Fatalf("dup copy %d: %v", i, err)
		}
	}
}

func TestLinkFaultCorruptionDetectedAtDecode(t *testing.T) {
	nw := newNet(t, 1)
	// Flip the kind byte so decode fails.
	if err := nw.InstallLinkFault(0, 1, flipFault{off: 0}); err != nil {
		t.Fatal(err)
	}
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	if err := a.Send(0, wire.Message{Kind: wire.KindExchange, Payload: wire.EncodeExchange(wire.ExchangePayload{})}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(0); err == nil {
		t.Fatal("corrupted kind byte decoded successfully")
	}
}

func TestInstallLinkFaultValidation(t *testing.T) {
	nw := newNet(t, 2)
	if err := nw.InstallLinkFault(0, 3, dropFault{}); err == nil {
		t.Error("0->3 not a link in dim-2 cube: want error")
	}
	if err := nw.InstallLinkFault(0, 1, dropFault{}); err != nil {
		t.Errorf("valid link: %v", err)
	}
}

func TestFaultsComposeInOrder(t *testing.T) {
	nw, err := New(Config{Dim: 1, RecvTimeout: 30 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// duplicate then drop => nothing arrives
	if err := nw.InstallLinkFault(0, 1, dupFault{}); err != nil {
		t.Fatal(err)
	}
	if err := nw.InstallLinkFault(0, 1, dropFault{}); err != nil {
		t.Fatal(err)
	}
	a, _ := nw.Endpoint(0)
	if err := a.Send(0, wire.Message{Kind: wire.KindExchange, Payload: wire.EncodeExchange(wire.ExchangePayload{})}); err != nil {
		t.Fatal(err)
	}
	// Drain directly: the queue must be empty.
	b, _ := nw.Endpoint(1)
	if _, err := b.Recv(0); !errors.Is(err, ErrAbsent) {
		t.Fatalf("want ErrAbsent, got %v", err)
	}
}

func TestBackpressure(t *testing.T) {
	nw := newNet(t, 1)
	a, _ := nw.Endpoint(0)
	msg := wire.Message{Kind: wire.KindExchange, Payload: wire.EncodeExchange(wire.ExchangePayload{})}
	var err error
	for i := 0; i < linkQueueDepth+1; i++ {
		err = a.Send(0, msg)
		if err != nil {
			break
		}
	}
	if !errors.Is(err, ErrLinkBackpressure) {
		t.Fatalf("want ErrLinkBackpressure after flooding, got %v", err)
	}
}

// Spares are pre-registered endpoints beyond the cube: reachable over
// the host interface (a spare is a powered part awaiting activation)
// but with no cube links until a remap gives them a logical slot.
func TestSpareEndpoints(t *testing.T) {
	nw, err := New(Config{Dim: 2, Spares: 2, RecvTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if nw.Spares() != 2 {
		t.Fatalf("Spares() = %d, want 2", nw.Spares())
	}
	// Labels 4 and 5 exist; 6 is beyond the pool.
	spare, err := nw.Endpoint(5)
	if err != nil {
		t.Fatalf("spare endpoint: %v", err)
	}
	if _, err := nw.Endpoint(6); err == nil {
		t.Error("Endpoint(6) beyond the spare pool: want error")
	}

	// No cube links while idle.
	if err := spare.Send(0, wire.Message{Kind: wire.KindExchange}); err == nil {
		t.Error("spare Send on a cube link: want error")
	}
	if _, err := spare.Recv(0); err == nil {
		t.Error("spare Recv on a cube link: want error")
	}

	// Host link works both ways.
	h := nw.Host()
	if err := h.Send(5, wire.Message{Kind: wire.KindHostDownload,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{11}})}); err != nil {
		t.Fatalf("host -> spare: %v", err)
	}
	m, err := spare.RecvHost()
	if err != nil {
		t.Fatalf("spare RecvHost: %v", err)
	}
	if m.Kind != wire.KindHostDownload {
		t.Fatalf("spare received %v", m.Kind)
	}
	if err := spare.SendHost(wire.Message{Kind: wire.KindHostUpload}); err != nil {
		t.Fatalf("spare SendHost: %v", err)
	}
	reply, err := h.Recv()
	if err != nil {
		t.Fatalf("host Recv from spare: %v", err)
	}
	if reply.From != 5 || reply.Kind != wire.KindHostUpload {
		t.Fatalf("host received %+v", reply)
	}
}

// Idle spares must not perturb the cube: a run on a spared network
// produces the identical virtual-time result as one without spares.
func TestSparesDoNotPerturbCube(t *testing.T) {
	run := func(spares int) (transportTicks int64) {
		nw, err := New(Config{Dim: 1, Spares: spares, RecvTimeout: 500 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		a, _ := nw.Endpoint(0)
		b, _ := nw.Endpoint(1)
		payload := wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{1, 2, 3}})
		if err := a.Send(0, wire.Message{Kind: wire.KindExchange, Payload: payload}); err != nil {
			t.Fatal(err)
		}
		if _, err := b.Recv(0); err != nil {
			t.Fatal(err)
		}
		return int64(a.Clock() + b.Clock())
	}
	if bare, spared := run(0), run(3); bare != spared {
		t.Fatalf("idle spares changed cube ticks: %d vs %d", bare, spared)
	}
}
