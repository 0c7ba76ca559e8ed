package transport

import (
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// linkDepth is the modelled per-link hardware queue, and the depth of
// every node's host mailbox. The bitonic protocols keep at most a few
// messages in flight per link per exchange, so this depth keeps
// simnet's sends non-blocking while still surfacing runaway senders;
// on tcpnet a full mailbox backs its socket up. (The usual "size one
// or none" channel guidance is intentionally relaxed here: the queue
// depth is the modelled quantity.)
const linkDepth = 32

// Packet is a frame in a mailbox with its virtual arrival tick.
type Packet struct {
	Raw     []byte
	Arrival Ticks
	// Pooled marks a buffer from simnet's free lists: its receiver
	// recycles it at its next receive, and Reset hands one it drains
	// to its recycler. Frames that fault interceptors may retain are
	// never pooled.
	Pooled bool
	// absent marks the absence rule's verdict instead of a frame: the
	// one worker it is handed to reports its message absent.
	absent bool
}

// Mailbox is one delivery queue and the counts the census compares:
// delivered, counted by a sender once its frame is on its way (queued
// on simnet, written to its socket on tcpnet), and taken, counted by
// the receiver (under the census lock when it leaves the census). Once
// every sender has stopped, the two differ exactly while a frame is on
// its way, queued, or in the hands of a receiver still parked.
type Mailbox struct {
	ch        chan Packet
	delivered atomic.Uint64
	taken     uint64
}

// Offer queues pkt without blocking and counts it delivered. It
// reports false, queueing nothing, when the mailbox is full.
func (b *Mailbox) Offer(pkt Packet) bool {
	select {
	case b.ch <- pkt:
		b.delivered.Add(1)
		return true
	default:
		return false
	}
}

// Written counts a frame delivered whose sender has written it to a
// socket; the reader at the socket's far end queues it with Put.
func (b *Mailbox) Written() { b.delivered.Add(1) }

// Put queues a frame read off a socket, waiting while the mailbox is
// full. It gives up, reporting false, once done closes. Put counts
// nothing: the frame's sender counted it (Written).
func (b *Mailbox) Put(pkt Packet, done <-chan struct{}) bool {
	select {
	case b.ch <- pkt:
		return true
	case <-done:
		return false
	}
}

// onTheWay reports whether a frame counted delivered to b has not been
// taken. Only b's receiver may call it.
func (b *Mailbox) onTheWay() bool { return int64(b.delivered.Load()-b.taken) > 0 }

// phase is a worker's place in the census.
type phase uint8

const (
	idle phase = iota
	running
	parked
	// chosen: parked, and handed the absence rule's verdict it has not
	// yet taken.
	chosen
)

// worker is one processor's census entry, kept per label across runs.
// The census lock guards its phase, the mailbox it waits on while
// parked or chosen, and its clock when it parked.
type worker struct {
	phase      phase
	box        *Mailbox
	blockClock Ticks
	// timer is the receive watchdog, touched only by the processor's
	// goroutine (the host's also by Reset, between runs). It is only
	// ever Reset after a clean Stop or after its tick was consumed,
	// which is safe under both pre- and post-1.23 timer semantics.
	timer *time.Timer
}

// worker returns the census entry of label id (wire.HostID for the
// host), nil for a label the network does not have.
func (c *Core) worker(id int) *worker {
	if i := id - int(wire.HostID); i >= 0 && i < len(c.labels) {
		return &c.labels[i].w
	}
	return nil
}

// WorkerStart implements WorkerControl: it declares a live worker
// before its goroutine launches. The absence rule waits until every
// declared, live worker is parked at a receive.
func (c *Core) WorkerStart(id int) {
	if w := c.worker(id); w != nil {
		c.census.Lock()
		if w.phase == idle {
			w.phase = running
			c.live++
		}
		c.census.Unlock()
	}
}

// WorkerDone implements WorkerControl: it retires a started worker. A
// retirement can leave every remaining worker parked, so it applies
// the absence rule as parking does. WorkerDone allocates nothing.
func (c *Core) WorkerDone(id int) {
	if w := c.worker(id); w != nil {
		c.census.Lock()
		if w.phase == running {
			w.phase = idle
			c.live--
			c.settle()
		}
		c.census.Unlock()
	}
}

// Wait takes the next packet from box, a mailbox of the port's own
// processor, and reports whether one came. A queued packet is taken at
// once, without the census lock. Otherwise a poll waits only while a
// frame counted delivered to box is still on its way, which on simnet,
// whose sends queue before they count, never happens. A receive waits
// parked in the census until a packet comes or the absence rule picks
// it. The receive watchdog bounds every wait: it is the only absence
// detector for a receiver no harness declared and for a frame lost
// with its socket. Closing the core's done channel ends every wait.
func (p *Port) Wait(box *Mailbox, poll bool) (Packet, bool) {
	select {
	case pkt := <-box.ch:
		box.taken++
		return pkt, true
	default:
	}
	if poll && !box.onTheWay() {
		return Packet{}, false
	}
	c, w := p.core, p.w
	if !poll {
		c.park(w, box, p.clock)
	}
	if w.timer == nil {
		w.timer = time.NewTimer(c.recvTimeout)
	} else {
		w.timer.Reset(c.recvTimeout)
	}
	var pkt Packet
	read, fired := false, false
	select {
	case pkt = <-box.ch:
		read = true
	case <-w.timer.C:
		fired = true
	case <-c.done:
	}
	if !fired && !w.timer.Stop() {
		// The timer fired meanwhile and its tick may still be in
		// flight: retire it rather than risk a stale tick on reuse.
		w.timer = nil
	}
	got := read && !pkt.absent
	if poll {
		if got {
			box.taken++
		}
	} else {
		c.unpark(w, box, got, !read)
	}
	return pkt, got
}

// park enters a declared worker in the census as blocked on box. A
// frame that arrived since the receive found box empty counts as
// delivered and not taken, so the rule sees the worker as about to run.
func (c *Core) park(w *worker, box *Mailbox, clock Ticks) {
	c.census.Lock()
	defer c.census.Unlock()
	if w.phase != running {
		return
	}
	w.phase, w.box, w.blockClock = parked, box, clock
	c.parked++
	c.settle()
}

// unpark ends a wait on box: it counts the frame taken, if any, and
// returns a declared worker to running. A worker the rule chose left
// the parked count then; if it left without reading box (its watchdog
// expired, or the network closed), its verdict still heads its queue
// and is taken here, not by its next receive.
func (c *Core) unpark(w *worker, box *Mailbox, took, left bool) {
	c.census.Lock()
	defer c.census.Unlock()
	if took {
		box.taken++
	}
	switch w.phase {
	case parked:
		c.parked--
	case chosen:
		if left {
			<-box.ch // never blocks: settle queued the verdict under this lock
		}
	default:
		return
	}
	w.phase, w.box = running, nil
}

// settle applies the absence rule. Once every live worker is parked
// and each mailbox they wait on has had as many frames taken as
// delivered, nothing can arrive for any of them: every sender is
// parked or retired and counted its sends before. The worker Absentee
// picks is then handed the verdict on its mailbox. Comparing counts,
// not queue lengths, keeps a worker that has taken its frame but not
// yet unparked from looking blocked, and one whose frame is still in a
// socket from looking abandoned. Callers hold c.census.
func (c *Core) settle() {
	if c.parked == 0 || c.parked < c.live {
		return
	}
	for i := range c.labels {
		if w := &c.labels[i].w; w.phase == parked && w.box.delivered.Load() != w.box.taken {
			return // that frame wakes its receiver
		}
	}
	first := Absentee(len(c.labels), func(i int) (Ticks, int, bool) {
		w := &c.labels[i].w
		return w.blockClock, i + int(wire.HostID), w.phase == parked
	})
	w := &c.labels[first].w
	select {
	case w.box.ch <- Packet{absent: true}:
		w.phase = chosen
		c.parked--
	default: // unreachable: all w's frames were taken, so its queue is empty
	}
}

// Absentee is the absence rule both of simnet's regimes and tcpnet
// share: when nothing can arrive for any parked worker, the one with
// the least (blocked clock, id) is told its message is absent, the
// virtual-time analogue of "the timer armed first expires first".
// parked reports candidate i's blocked clock and id and whether it is
// parked; Absentee returns the chosen index, -1 if none is.
func Absentee(n int, parked func(i int) (clock Ticks, id int, ok bool)) int {
	first, firstClock, firstID := -1, Ticks(0), 0
	for i := 0; i < n; i++ {
		clock, id, ok := parked(i)
		if ok && (first < 0 || clock < firstClock || clock == firstClock && id < firstID) {
			first, firstClock, firstID = i, clock, id
		}
	}
	return first
}

// drain takes every frame written to box by polling it through p
// until no frame is on its way, or the watchdog or done ends a wait.
// It hands each pooled buffer to recycle, zeroes the mailbox's counts
// and reports whether every frame counted was taken.
func (c *Core) drain(p *Port, box *Mailbox, recycle func([]byte)) bool {
	for {
		pkt, ok := p.Wait(box, true)
		if !ok {
			break
		}
		if pkt.Pooled && recycle != nil {
			recycle(pkt.Raw)
		}
	}
	whole := !box.onTheWay()
	box.delivered.Store(0)
	box.taken = 0
	return whole
}
