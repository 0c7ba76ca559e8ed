package simnet

import (
	"errors"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// hourNet is a free-running network whose receive timer cannot fire
// within a test: any absence it reports comes from an end-of-traffic
// marker.
func hourNet(t *testing.T, dim int) *Network {
	t.Helper()
	nw, err := New(Config{Dim: dim, RecvTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

// within runs f and fails the test if it has not returned after d.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s still blocked after %v: absence waited for the receive timeout", what, d)
	}
}

func exchangeMsg(iter int32) wire.Message {
	return wire.Message{Kind: wire.KindExchange, Stage: 1, Iter: iter,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{int64(iter)}})}
}

// A node's last message is delivered before its end-of-traffic marker.
func TestExitMarkerFollowsLastMessage(t *testing.T) {
	nw := hourNet(t, 2)
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	for i := int32(0); i < 3; i++ {
		if err := a.Send(0, exchangeMsg(i)); err != nil {
			t.Fatal(err)
		}
	}
	nw.WorkerDone(0)
	within(t, 5*time.Second, "Recv", func() {
		for i := int32(0); i < 3; i++ {
			m, err := b.Recv(0)
			if err != nil || m.Iter != i {
				t.Errorf("receive %d: iter %d, err %v; want the message before the absence", i, m.Iter, err)
				return
			}
		}
		clock := b.Clock()
		if _, err := b.Recv(0); !errors.Is(err, ErrAbsent) || !errors.Is(err, transport.ErrAbsent) {
			t.Errorf("after the last message: got %v, want ErrAbsent", err)
		}
		if b.Clock() != clock {
			t.Errorf("absence moved the virtual clock from %d to %d", clock, b.Clock())
		}
	})
}

// A partner blocked in Recv learns of the exit at once, through
// node.RunPer, with the receive timeout at one hour.
func TestExitAbsenceIsPrompt(t *testing.T) {
	nw := hourNet(t, 2)
	progs := make([]node.Program, 4)
	progs[0] = func(ep transport.Endpoint) error { return errors.New("accused a liar") }
	for id := 1; id < 4; id++ {
		progs[id] = func(ep transport.Endpoint) error {
			// Nodes 1 and 2 wait on node 0; node 3 waits on node 2,
			// which ends on its own absence: a cascade.
			bit := 0
			if ep.ID() == 2 {
				bit = 1
			}
			_, err := ep.Recv(bit)
			return err
		}
	}
	var res *node.Result
	within(t, 5*time.Second, "node.RunPer", func() {
		var err error
		if res, err = node.RunPer(nw, progs, nil); err != nil {
			t.Error(err)
		}
	})
	if res == nil {
		return
	}
	for id := 1; id < 4; id++ {
		if err := res.Nodes[id].Err; !errors.Is(err, ErrAbsent) {
			t.Errorf("node %d: got %v, want ErrAbsent", id, err)
		}
		if c := res.Nodes[id].Clock; c != 0 {
			t.Errorf("node %d: absence charged %d virtual ticks", id, c)
		}
	}
}

// Once a link's marker is dequeued, every later Recv on that bit
// reports absence without blocking.
func TestExitAbsenceIsSticky(t *testing.T) {
	nw := hourNet(t, 1)
	b, _ := nw.Endpoint(1)
	nw.WorkerDone(0)
	within(t, 5*time.Second, "Recv", func() {
		for i := 0; i < 3; i++ {
			if _, err := b.Recv(0); !errors.Is(err, ErrAbsent) {
				t.Errorf("receive %d: got %v, want ErrAbsent", i, err)
			}
		}
	})
}

// Reset discards markers left by a run, so a recycled network's next
// run sees only its own traffic.
func TestResetDrainsExitMarkers(t *testing.T) {
	nw := hourNet(t, 2)
	quit := make([]node.Program, 4)
	for id := range quit {
		quit[id] = func(transport.Endpoint) error { return nil }
	}
	if _, err := node.RunPer(nw, quit, nil); err != nil {
		t.Fatal(err)
	}
	if err := nw.Reset(nil, nil); err != nil {
		t.Fatal(err)
	}
	swap := make([]node.Program, 4)
	for id := range swap {
		swap[id] = func(ep transport.Endpoint) error {
			for bit := 0; bit < 2; bit++ {
				if err := ep.Send(bit, exchangeMsg(int32(bit))); err != nil {
					return err
				}
				if _, err := ep.Recv(bit); err != nil {
					return err
				}
			}
			return nil
		}
	}
	within(t, 5*time.Second, "second run", func() {
		res, err := node.RunPer(nw, swap, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := res.FirstNodeErr(); err != nil {
			t.Errorf("recycled run saw a stale marker: %v", err)
		}
	})
}

// A full link queue cannot take the marker; WorkerDone must not block
// then, and the partner falls back to its timer.
func TestExitMarkerFullQueueFallsBackToTimer(t *testing.T) {
	nw, err := New(Config{Dim: 1, RecvTimeout: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	for i := 0; i < linkQueueDepth; i++ {
		if err := a.Send(0, exchangeMsg(int32(i))); err != nil {
			t.Fatal(err)
		}
	}
	within(t, 5*time.Second, "WorkerDone", func() { nw.WorkerDone(0) })
	for i := 0; i < linkQueueDepth; i++ {
		if _, err := b.Recv(0); err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
	}
	if _, err := b.Recv(0); !errors.Is(err, ErrAbsent) {
		t.Fatalf("got %v, want the timer's ErrAbsent", err)
	}
}

// Controlled networks resolve absence in their coordinator: retiring a
// worker there leaves the raw link channels untouched.
func TestControlledIgnoresExitMarkers(t *testing.T) {
	nw, err := New(Config{Dim: 1, RecvTimeout: time.Hour, Sched: NewRandom(5)})
	if err != nil {
		t.Fatal(err)
	}
	progs := []node.Program{
		func(transport.Endpoint) error { return nil },
		func(ep transport.Endpoint) error { _, err := ep.Recv(0); return err },
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !errors.Is(res.Nodes[1].Err, ErrAbsent) {
		t.Fatalf("node 1: got %v, want the coordinator's ErrAbsent", res.Nodes[1].Err)
	}
	for id, chans := range nw.links {
		for bit, ch := range chans {
			if len(ch) != 0 {
				t.Errorf("link into %d across bit %d holds %d packets", id, bit, len(ch))
			}
		}
	}
}

// WorkerDone sits on every node's exit path and must not allocate.
func TestWorkerDoneZeroAllocs(t *testing.T) {
	nw := hourNet(t, 3)
	allocs := testing.AllocsPerRun(100, func() {
		nw.WorkerDone(5)
		for _, chans := range nw.links {
			for _, ch := range chans {
				nw.drainPackets(ch)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("WorkerDone: %v allocs/op, want 0", allocs)
	}
}
