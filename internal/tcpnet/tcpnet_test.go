package tcpnet

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/hostsort"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/sortnr"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newNet(t testing.TB, dim int) *Network {
	t.Helper()
	nw, err := New(Config{Dim: dim, RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(nw.Close)
	return nw
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Dim: -1}); err == nil {
		t.Error("negative dim: want error")
	}
}

func TestSendRecvOverTCP(t *testing.T) {
	nw := newNet(t, 2)
	a, err := nw.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := nw.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	msg := wire.Message{Kind: wire.KindExchange, Stage: 1,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{7}})}
	if err := a.Send(0, msg); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.From != 0 || got.To != 1 || got.Stage != 1 {
		t.Fatalf("got %+v", got)
	}
	p, err := wire.DecodeExchange(got.Payload)
	if err != nil || p.Keys[0] != 7 {
		t.Fatalf("payload %v err %v", p, err)
	}
	if b.Clock() <= a.Clock()-1000 { // receiver waited for arrival
		t.Errorf("clocks: a=%d b=%d", a.Clock(), b.Clock())
	}
	if _, err := nw.Endpoint(99); err == nil {
		t.Error("bad node id: want error")
	}
	if _, err := b.Recv(9); err == nil {
		t.Error("bad bit: want error")
	}
}

func TestHostRoundTripOverTCP(t *testing.T) {
	nw := newNet(t, 1)
	ep, err := nw.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	h := nw.Host()
	if err := ep.SendHost(wire.Message{Kind: wire.KindHostUpload,
		Payload: wire.EncodeHost(wire.HostPayload{Keys: []int64{9}})}); err != nil {
		t.Fatal(err)
	}
	m, err := h.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if m.From != 1 {
		t.Fatalf("from = %d", m.From)
	}
	if err := h.Send(1, wire.Message{Kind: wire.KindHostDownload,
		Payload: wire.EncodeHost(wire.HostPayload{Keys: []int64{10}})}); err != nil {
		t.Fatal(err)
	}
	back, err := ep.RecvHost()
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind != wire.KindHostDownload {
		t.Fatalf("kind = %v", back.Kind)
	}
	if err := h.Send(99, wire.Message{Kind: wire.KindHostDownload}); err == nil {
		t.Error("host send to bad node: want error")
	}
}

func TestRecvTimeout(t *testing.T) {
	nw, err := New(Config{Dim: 1, RecvTimeout: 40 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	ep, err := nw.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, rerr := ep.Recv(0); !errors.Is(rerr, ErrAbsent) {
		t.Fatalf("want ErrAbsent, got %v", rerr)
	}
}

func TestCloseUnblocksReceivers(t *testing.T) {
	nw := newNet(t, 1)
	ep, err := nw.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, rerr := ep.Recv(0)
		done <- rerr
	}()
	time.Sleep(20 * time.Millisecond)
	nw.Close()
	select {
	case rerr := <-done:
		if !errors.Is(rerr, ErrClosed) {
			t.Fatalf("want ErrClosed, got %v", rerr)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// The flagship test: each runner sorts over real TCP and produces the
// *identical* virtual-time results as the channel simulator — every
// node's clocks, the host's clocks, and the per-kind message and byte
// counts.
func TestTCPMatchesSimnet(t *testing.T) {
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	blockKeys := make([]int64, 0, 4*len(keys))
	for i := range 4 * len(keys) {
		blockKeys = append(blockKeys, int64((i*37)%29-11))
	}
	ft := func(keys []int64, m int) func(transport.Network) ([]int64, *node.Result, error) {
		return func(nw transport.Network) ([]int64, *node.Result, error) {
			oc, err := core.RunBlocks(nw, keys, m, nil)
			if err != nil {
				return nil, nil, err
			}
			if oc.Detected() {
				return nil, nil, fmt.Errorf("spurious detection: %v %v", oc.Result.FirstNodeErr(), oc.HostErrors)
			}
			return oc.Sorted, oc.Result, nil
		}
	}
	for _, tc := range []struct {
		name string
		keys []int64
		run  func(transport.Network) ([]int64, *node.Result, error)
	}{
		{"sft", keys, ft(keys, 1)},
		{"blockft-m4", blockKeys, ft(blockKeys, 4)},
		{"snr", keys, func(nw transport.Network) ([]int64, *node.Result, error) { return sortnr.Run(nw, keys) }},
		{"hostsort", keys, func(nw transport.Network) ([]int64, *node.Result, error) { return hostsort.RunHostSort(nw, keys, 1) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := simnet.New(simnet.Config{Dim: 3, RecvTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			var res [2]*node.Result
			for i, nw := range []transport.Network{newNet(t, 3), sim} {
				out, r, err := tc.run(nw)
				if err != nil {
					t.Fatal(err)
				}
				if err := r.AnyErr(); err != nil {
					t.Fatal(err)
				}
				if err := checker.Verify(tc.keys, out, true); err != nil {
					t.Fatal(err)
				}
				res[i] = r
			}
			tcp, sn := res[0], res[1]
			for id := range tcp.Nodes {
				tn, nn := tcp.Nodes[id], sn.Nodes[id]
				if tn.Clock != nn.Clock || tn.CommTicks != nn.CommTicks || tn.CompTicks != nn.CompTicks {
					t.Errorf("node %d clocks: tcp %+v vs simnet %+v", id, tn, nn)
				}
			}
			if tcp.HostClock != sn.HostClock || tcp.HostComm != sn.HostComm || tcp.HostComp != sn.HostComp {
				t.Errorf("host clocks: tcp %d/%d/%d vs simnet %d/%d/%d",
					tcp.HostClock, tcp.HostComm, tcp.HostComp, sn.HostClock, sn.HostComm, sn.HostComp)
			}
			tm, sm := tcp.Metrics, sn.Metrics
			if tm != sm {
				t.Errorf("traffic: tcp %v/%v vs simnet %v/%v", tm.MsgsByKind, tm.BytesByKind, sm.MsgsByKind, sm.BytesByKind)
			}
		})
	}
}

func TestSNROverTCP(t *testing.T) {
	keys := []int64{4, 1, 3, 2}
	nw := newNet(t, 2)
	out, res, err := sortnr.Run(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AnyErr(); err != nil {
		t.Fatal(err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		t.Fatalf("%v (out=%v)", err, out)
	}
}

func TestHostSortOverTCP(t *testing.T) {
	keys := []int64{9, -1, 5, 0, 2, 2, 8, 7}
	nw := newNet(t, 3)
	out, res, err := hostsort.RunHostSort(nw, keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AnyErr(); err != nil {
		t.Fatal(err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		t.Fatal(err)
	}
	if res.HostComm == 0 {
		t.Error("host comm not charged")
	}
}

func TestMetricsOverTCP(t *testing.T) {
	keys := []int64{4, 3, 2, 1}
	nw := newNet(t, 2)
	_, res, err := sortnr.Run(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	steps := 2 * (2 + 1) / 2
	if got := res.Metrics.MsgsByKind[wire.KindExchange]; got != int64(4*steps) {
		t.Errorf("exchange msgs = %d, want %d", got, 4*steps)
	}
}

func TestDoubleCloseIsSafe(t *testing.T) {
	nw := newNet(t, 1)
	nw.Close()
	nw.Close()
}

// Spares are real pre-registered loopback connections: reachable over
// the host socket while idle, but with no cube links.
func TestSpareEndpointsOverTCP(t *testing.T) {
	nw, err := New(Config{Dim: 2, Spares: 2, RecvTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Close()
	if nw.Spares() != 2 {
		t.Fatalf("Spares() = %d, want 2", nw.Spares())
	}
	spare, err := nw.Endpoint(5)
	if err != nil {
		t.Fatalf("spare endpoint: %v", err)
	}
	if _, err := nw.Endpoint(6); err == nil {
		t.Error("Endpoint(6) beyond the spare pool: want error")
	}
	if err := spare.Send(0, wire.Message{Kind: wire.KindExchange}); err == nil {
		t.Error("spare Send on a cube link: want error")
	}
	if _, err := spare.Recv(0); err == nil {
		t.Error("spare Recv on a cube link: want error")
	}

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
