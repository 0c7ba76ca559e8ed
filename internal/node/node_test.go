package node

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newNet(t *testing.T, dim int) *simnet.Network {
	t.Helper()
	nw, err := simnet.New(simnet.Config{Dim: dim})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// ringExchange has every node send its id across bit 0 and receive the
// partner's id back, verifying harness plumbing end to end.
func ringExchange(ep transport.Endpoint) error {
	msg := wire.Message{Kind: wire.KindExchange,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{int64(ep.ID())}})}
	if err := ep.Send(0, msg); err != nil {
		return err
	}
	got, err := ep.Recv(0)
	if err != nil {
		return err
	}
	p, err := wire.DecodeExchange(got.Payload)
	if err != nil {
		return err
	}
	want := int64(ep.ID() ^ 1)
	if p.Keys[0] != want {
		return errors.New("wrong partner id")
	}
	ep.ChargeCompare(1)
	return nil
}

func TestRunAllNodesSucceed(t *testing.T) {
	nw := newNet(t, 3)
	res, err := Run(nw, ringExchange, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AnyErr(); err != nil {
		t.Fatal(err)
	}
	if res.Makespan() == 0 {
		t.Error("makespan = 0")
	}
	if res.TotalNodeComm() == 0 || res.TotalNodeComp() == 0 {
		t.Error("comm/comp ticks not recorded")
	}
	if res.MaxNodeComm() == 0 || res.MaxNodeComp() == 0 {
		t.Error("max comm/comp ticks not recorded")
	}
	if res.Metrics.MsgsByKind[wire.KindExchange] != 8 {
		t.Errorf("exchange msgs = %d, want 8", res.Metrics.MsgsByKind[wire.KindExchange])
	}
}

func TestRunWithHost(t *testing.T) {
	nw := newNet(t, 1)
	prog := func(ep transport.Endpoint) error {
		return ep.SendHost(wire.Message{Kind: wire.KindHostUpload,
			Payload: wire.EncodeHost(wire.HostPayload{Keys: []int64{int64(ep.ID())}})})
	}
	hostProg := func(h transport.Host) error {
		seen := 0
		for seen < 2 {
			if _, err := h.Recv(); err != nil {
				return err
			}
			seen++
		}
		return nil
	}
	res, err := Run(nw, prog, hostProg)
	if err != nil {
		t.Fatal(err)
	}
	if res.HostErr != nil {
		t.Fatal(res.HostErr)
	}
	if res.HostClock == 0 || res.HostComm == 0 {
		t.Error("host clocks not recorded")
	}
}

func TestNodeErrorIsReported(t *testing.T) {
	nw := newNet(t, 2)
	boom := errors.New("boom")
	prog := func(ep transport.Endpoint) error {
		if ep.ID() == 2 {
			return boom
		}
		return nil
	}
	res, err := Run(nw, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ferr := res.FirstNodeErr()
	if !errors.Is(ferr, boom) {
		t.Fatalf("FirstNodeErr = %v", ferr)
	}
	if !strings.Contains(ferr.Error(), "node 2") {
		t.Errorf("error %q does not name node 2", ferr)
	}
	if res.Nodes[0].Err != nil || res.Nodes[2].Err == nil {
		t.Error("per-node error placement wrong")
	}
}

func TestPanicBecomesError(t *testing.T) {
	nw := newNet(t, 1)
	prog := func(ep transport.Endpoint) error {
		if ep.ID() == 1 {
			panic("byzantine meltdown")
		}
		return nil
	}
	res, err := Run(nw, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes[1].Err == nil || !strings.Contains(res.Nodes[1].Err.Error(), "panicked") {
		t.Fatalf("panic not converted: %v", res.Nodes[1].Err)
	}
}

func TestHostPanicBecomesError(t *testing.T) {
	nw := newNet(t, 1)
	res, err := Run(nw, func(transport.Endpoint) error { return nil },
		func(transport.Host) error { panic("host bug") })
	if err != nil {
		t.Fatal(err)
	}
	if res.HostErr == nil || !strings.Contains(res.HostErr.Error(), "panicked") {
		t.Fatalf("host panic not converted: %v", res.HostErr)
	}
	if res.AnyErr() == nil {
		t.Error("AnyErr missed host error")
	}
}

func TestRunPerSilentNode(t *testing.T) {
	nw, err := simnet.New(simnet.Config{Dim: 1, RecvTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	progs := []Program{
		func(ep transport.Endpoint) error { // node 0 expects a message that never comes
			_, err := ep.Recv(0)
			return err
		},
		nil, // node 1 is crashed
	}
	res, err := RunPer(nw, progs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Nodes[0].Err, simnet.ErrAbsent) {
		t.Fatalf("node 0 err = %v, want ErrAbsent", res.Nodes[0].Err)
	}
	if res.Nodes[1].Err != nil {
		t.Error("crashed node should have nil error (it never ran)")
	}
}

func TestRunPerLengthValidation(t *testing.T) {
	nw := newNet(t, 2)
	if _, err := RunPer(nw, make([]Program, 3), nil); err == nil {
		t.Error("wrong program count: want error")
	}
}

func TestMakespanIsMaxClock(t *testing.T) {
	nw := newNet(t, 1)
	prog := func(ep transport.Endpoint) error {
		if ep.ID() == 0 {
			ep.Compute(1000)
		} else {
			ep.Compute(10)
		}
		return nil
	}
	res, err := Run(nw, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan() != 1000 {
		t.Errorf("makespan = %d, want 1000", res.Makespan())
	}
}
