package transport

import (
	"testing"
	"time"

	"repro/internal/wire"
)

// newCore is a one-dimensional core whose receive watchdog cannot fire
// within a test.
func newCore(t *testing.T) *Core {
	t.Helper()
	c := new(Core)
	if err := c.Init("test", 1, CostModel{}, time.Hour, 0, nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	return c
}

// A watchdog that fires while its worker is being chosen finds the
// verdict already handed over: unpark takes it, so the worker's next
// receive sees the next message, not a stale absence.
func TestWatchdogDuringChoiceLeavesNoVerdict(t *testing.T) {
	c := newCore(t)
	c.WorkerStart(1)
	w, box := c.worker(1), c.Link(1, 0)
	c.park(w, box, 0)
	// The only live worker parked: the rule chose it at once.
	if w.phase != chosen || len(box.ch) != 1 {
		t.Fatalf("phase %d with %d queued, want chosen with its verdict queued", w.phase, len(box.ch))
	}
	c.unpark(w, box, false, true) // as if its watchdog had fired first
	if w.phase != running || len(box.ch) != 0 || c.parked != 0 {
		t.Fatalf("after the watchdog: phase %d, %d queued, %d parked; want running, none, none",
			w.phase, len(box.ch), c.parked)
	}
	if !box.Offer(Packet{Raw: []byte{7}}) {
		t.Fatal("offer to an empty mailbox failed")
	}
	p := c.Port(1)
	if pkt, ok := p.Wait(box, false); !ok || pkt.Raw[0] != 7 {
		t.Fatalf("next receive: %v, ok %v; want the message", pkt.Raw, ok)
	}
	c.WorkerDone(1)
}

// Reset empties the census and drains a verdict a run left queued.
func TestResetDrainsVerdict(t *testing.T) {
	c := newCore(t)
	c.WorkerStart(0)
	c.WorkerStart(1)
	c.WorkerStart(int(wire.HostID))
	c.park(c.worker(1), c.Link(1, 0), 0)
	c.WorkerDone(0)
	c.WorkerDone(int(wire.HostID)) // leaves 1 parked alone: chosen
	if len(c.Link(1, 0).ch) != 1 {
		t.Fatal("no verdict queued")
	}
	if err := c.Reset(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if c.live != 0 || c.parked != 0 || len(c.Link(1, 0).ch) != 0 {
		t.Fatalf("after Reset: %d live, %d parked, %d queued; want none", c.live, c.parked, len(c.Link(1, 0).ch))
	}
	for i := range c.labels {
		if w := &c.labels[i].w; w.phase != idle || w.box != nil {
			t.Fatalf("after Reset: worker %d in phase %d", i+int(wire.HostID), w.phase)
		}
	}
}

// A poll and Reset's drain wait for a frame counted delivered that
// has not reached its mailbox (a frame in a socket), and neither waits
// once every counted frame is taken.
func TestFrameOnItsWayIsAwaited(t *testing.T) {
	c := newCore(t)
	box := c.HostIn()
	host := c.Port(int(wire.HostID))
	for i := byte(0); i < 2; i++ {
		box.Written()
		go func() {
			time.Sleep(10 * time.Millisecond)
			box.Put(Packet{Raw: []byte{i}}, nil)
		}()
	}
	if pkt, ok := host.Wait(box, true); !ok || len(pkt.Raw) != 1 {
		t.Fatalf("poll: %v, ok %v; want the frame on its way", pkt.Raw, ok)
	}
	if err := c.Reset(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if box.delivered.Load() != 0 || box.taken != 0 || len(box.ch) != 0 {
		t.Fatalf("after Reset: %d delivered, %d taken, %d queued; want none", box.delivered.Load(), box.taken, len(box.ch))
	}
	if _, ok := host.Wait(box, true); ok {
		t.Fatal("poll of a drained mailbox found a frame")
	}
}

// Every link mailbox and every node's host-link mailbox holds exactly
// linkDepth frames, the modelled hardware queue: Offer accepts that
// many and refuses the next, queueing nothing.
func TestMailboxDepth(t *testing.T) {
	c := newCore(t)
	for _, box := range []*Mailbox{c.Link(0, 0), c.Link(1, 0), c.HostOut(0), c.HostOut(1)} {
		for i := 0; i < linkDepth; i++ {
			if !box.Offer(Packet{}) {
				t.Fatalf("Offer refused frame %d of %d", i+1, linkDepth)
			}
		}
		if box.Offer(Packet{}) {
			t.Fatalf("Offer accepted frame %d beyond the depth %d", linkDepth+1, linkDepth)
		}
		if got := box.delivered.Load(); got != linkDepth || len(box.ch) != linkDepth {
			t.Fatalf("%d delivered, %d queued; want %d each", got, len(box.ch), linkDepth)
		}
	}
}
