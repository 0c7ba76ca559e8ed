package simnet

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// hourNet is a free-running network whose receive watchdog cannot fire
// within a test: any absence it reports comes from the absence rule.
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
		t.Fatalf("%s still blocked after %v: absence waited for the receive watchdog", what, d)
	}
}

func exchangeMsg(iter int32) wire.Message {
	return wire.Message{Kind: wire.KindExchange, Stage: 1, Iter: iter,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{int64(iter)}})}
}

// A retired node's messages are all delivered before its partner is
// told the next one is absent; absence leaves the clock alone.
func TestAbsenceFollowsLastMessage(t *testing.T) {
	nw := hourNet(t, 2)
	nw.WorkerStart(0)
	nw.WorkerStart(1)
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

// Once a partner has retired, every later Recv on its link reports
// absence at once: each resolves at quiescence, with no state kept
// between them.
func TestExitAbsenceIsSticky(t *testing.T) {
	nw := hourNet(t, 1)
	nw.WorkerStart(0)
	nw.WorkerStart(1)
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

// A partner that is alive but silent, and one that crashed (a nil
// program, never declared), are each reported absent at once: nothing
// waits for the hour-long watchdog.
func TestSilentPartnerIsPromptlyAbsent(t *testing.T) {
	recvFirst := func(ep transport.Endpoint) error { _, err := ep.Recv(0); return err }
	for name, progs := range map[string][]node.Program{
		// Both wait to hear first: the silence strategy's deadlock.
		"silent":  {recvFirst, recvFirst},
		"crashed": {nil, recvFirst},
	} {
		t.Run(name, func(t *testing.T) {
			nw := hourNet(t, 1)
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
			for id, p := range progs {
				if p != nil && !errors.Is(res.Nodes[id].Err, ErrAbsent) {
					t.Errorf("node %d: got %v, want ErrAbsent", id, res.Nodes[id].Err)
				}
			}
		})
	}
}

// The absence rule tells the parked worker with the least (blocked
// clock, id) first, and the free and controlled regimes pick the same
// order: one function decides for both.
func TestAbsenteeIsLeastClockThenID(t *testing.T) {
	// Every node charges its own ticks, then waits on a partner that is
	// waiting too. Node 1 and 2 tie on the clock; the id breaks it.
	ticks := []Ticks{30, 20, 20, 10}
	want := []int{3, 1, 2, 0}
	for name, sched := range map[string]Scheduler{"free": nil, "controlled": NewReplay(nil)} {
		t.Run(name, func(t *testing.T) {
			nw, err := New(Config{Dim: 2, RecvTimeout: time.Hour, Sched: sched})
			if err != nil {
				t.Fatal(err)
			}
			var mu sync.Mutex
			var order []int
			progs := make([]node.Program, 4)
			for id := range progs {
				progs[id] = func(ep transport.Endpoint) error {
					ep.Compute(ticks[ep.ID()])
					_, err := ep.Recv(0)
					mu.Lock()
					order = append(order, ep.ID())
					mu.Unlock()
					return err
				}
			}
			within(t, 5*time.Second, "node.RunPer", func() {
				if _, err := node.RunPer(nw, progs, nil); err != nil {
					t.Error(err)
				}
			})
			mu.Lock()
			defer mu.Unlock()
			if len(order) != len(want) {
				t.Fatalf("absence order %v, want %v", order, want)
			}
			for i := range want {
				if order[i] != want[i] {
					t.Fatalf("absence order %v, want %v", order, want)
				}
			}
		})
	}
}

// A receiver no harness declared is not in the census: the rule never
// picks it, and only its watchdog (or a message) ends its wait, even
// while declared workers beside it are told of their absences.
func TestUndeclaredReceiverWaitsForTimer(t *testing.T) {
	nw := hourNet(t, 1)
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	got := make(chan error, 1)
	go func() {
		_, err := b.Recv(0)
		got <- err
	}()
	nw.WorkerStart(0)
	within(t, 5*time.Second, "declared Recv", func() {
		if _, err := a.Recv(0); !errors.Is(err, ErrAbsent) {
			t.Errorf("declared node 0: got %v, want ErrAbsent", err)
		}
	})
	select {
	case err := <-got:
		t.Fatalf("undeclared receiver returned %v before its watchdog", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := a.Send(0, exchangeMsg(1)); err != nil {
		t.Fatal(err)
	}
	if err := <-got; err != nil {
		t.Fatalf("undeclared receiver: got %v, want the message", err)
	}
	nw.WorkerDone(0)
}

// Reset empties the census and drains what a run left queued, so a
// recycled network's next run starts from nothing: workers a run left
// declared no longer count as live, so absence still comes at once.
func TestResetEmptiesCensus(t *testing.T) {
	nw := hourNet(t, 2)
	for id := 0; id < 4; id++ {
		nw.WorkerStart(id)
	}
	nw.WorkerStart(hostWorker)
	a, _ := nw.Endpoint(0)
	if err := a.Send(0, exchangeMsg(9)); err != nil {
		t.Fatal(err)
	}
	if err := nw.Reset(nil, nil); err != nil {
		t.Fatal(err)
	}
	// Node 0 crashed: the others swap across both bits, and each is
	// told of an absence (node 0's, or that of a partner it ended),
	// neither handed the stale frame nor left waiting for the hour-long
	// watchdog.
	swap := make([]node.Program, 4)
	for id := 1; id < 4; id++ {
		swap[id] = func(ep transport.Endpoint) error {
			for bit := 0; bit < 2; bit++ {
				if err := ep.Send(bit, exchangeMsg(int32(bit))); err != nil {
					return err
				}
				if m, err := ep.Recv(bit); err != nil {
					return err
				} else if m.Iter != int32(bit) {
					return fmt.Errorf("received a stale frame: %+v", m)
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
		for id := 1; id < 4; id++ {
			if err := res.Nodes[id].Err; !errors.Is(err, ErrAbsent) {
				t.Errorf("node %d: got %v, want ErrAbsent", id, err)
			}
		}
	})
}

// WorkerDone sits on every node's exit path and parking on every
// receive that finds its queue empty: neither may allocate, including
// when the absence rule picks a worker and hands it its verdict.
func TestWorkerDoneZeroAllocs(t *testing.T) {
	nw := hourNet(t, 3)
	if _, err := nw.Endpoint(5); err != nil {
		t.Fatal(err)
	}
	p, q := nw.proc(5), QueueID{Kind: QLink, Node: 5, Bit: 2}
	allocs := testing.AllocsPerRun(100, func() {
		nw.WorkerStart(4)
		nw.WorkerStart(5)
		nw.WorkerDone(4)
		if _, ok := p.wait(q, false); ok { // 5 alone parks: chosen at once
			t.Fatal("a message arrived on an idle link")
		}
		nw.WorkerDone(5)
	})
	if allocs != 0 {
		t.Fatalf("park and WorkerDone: %v allocs/op, want 0", allocs)
	}
}
