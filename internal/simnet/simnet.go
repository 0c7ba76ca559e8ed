// Package simnet simulates the paper's target machine: a hypercube
// multicomputer (Ncube-class) of autonomous nodes with private memory,
// connected by point-to-point links, plus a reliable host processor.
//
// The simulator substitutes for the physical Ncube per the environmental
// assumptions of the paper:
//
//  1. node-to-node links and processors may fail in Byzantine ways —
//     modelled by LinkFault interceptors and by faulty node programs;
//  2. the host and host links are reliable — host channels bypass the
//     fault interceptors entirely;
//  3. message passing over point-to-point links is the only
//     communication; there is no atomic broadcast — a node can only
//     Send/Recv across a single cube dimension at a time;
//  4. the absence of a message is detectable — Recv surfaces ErrAbsent
//     as soon as the partner's program has returned without sending
//     (its end-of-traffic marker, see Network.WorkerDone), and after a
//     wall-clock timeout for a partner that is alive but silent.
//
// Time is virtual: every endpoint owns a deterministic tick clock, kept
// by the transport.Port it embeds. Sending charges the sender,
// receiving charges the receiver, and a message arrives at
// sender-departure-time + latency. The makespan of a run is the
// maximum node clock, which plays the role of the paper's measured
// "clock ticks".
package simnet

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Compile-time checks: simnet implements the transport abstraction.
var (
	_ transport.Network  = (*Network)(nil)
	_ transport.Endpoint = (*Endpoint)(nil)
	_ transport.Host     = (*Host)(nil)
)

// Ticks is a quantity of virtual time (alias of transport.Ticks).
type Ticks = transport.Ticks

// CostModel assigns virtual-time costs to primitive operations
// (alias of transport.CostModel).
type CostModel = transport.CostModel

// DefaultCostModel returns the experiment harness's cost model; see
// transport.DefaultCostModel.
func DefaultCostModel() CostModel { return transport.DefaultCostModel() }

// ErrAbsent is returned by Recv when the partner has exited without
// sending or no message arrives within the configured timeout. Per
// environmental assumption 4, absence of an expected message is itself
// an error the application must surface. It wraps transport.ErrAbsent
// so callers can classify absence without knowing which network
// implementation ran.
var ErrAbsent = fmt.Errorf("simnet: expected message absent: %w", transport.ErrAbsent)

// ErrLinkBackpressure is returned when a link queue is full. The
// protocols in this repository exchange at most a handful of messages
// per link per step, so hitting this indicates a protocol bug rather
// than a load condition.
var ErrLinkBackpressure = errors.New("simnet: link queue full")

// linkQueueDepth is the modelled per-link hardware queue. The bitonic
// protocols keep at most a few messages in flight per link per
// exchange, so this depth makes sends non-blocking while still
// surfacing runaway senders via ErrLinkBackpressure. (The usual "size
// one or none" channel guidance is intentionally relaxed here: the
// queue depth is the modelled quantity.)
const linkQueueDepth = 32

// packet is a message in flight with its virtual arrival time. pooled
// marks buffers owned by the network's free lists: the receiver
// recycles them at its next receive or when it retires. Fault-path
// deliveries are never pooled, since interceptors may retain or alias
// the buffer. gone marks an end-of-traffic marker instead of a
// message: the sender's program has returned, so nothing follows it on
// the link.
type packet struct {
	raw     []byte
	arrival Ticks
	pooled  bool
	gone    bool
}

// LinkFault intercepts traffic on one directed link. Apply receives
// the encoded message and returns the list of raw messages actually
// delivered: return nil to drop, a modified buffer to corrupt, or
// multiple buffers to duplicate. The fault implementations live in
// internal/fault, and cmd/tracesort installs an identity tap that
// reads the views on the wire; simnet only defines the seam.
type LinkFault interface {
	Apply(raw []byte) [][]byte
}

// Config parameterizes a Network.
type Config struct {
	// Dim is the hypercube dimension n; the network has 2^n nodes.
	Dim int
	// Cost is the virtual-time cost model; zero value means DefaultCostModel.
	Cost CostModel
	// RecvTimeout bounds how long a Recv waits in wall-clock time
	// before declaring the message absent. Zero means 2 seconds. On a
	// free-running network it is only the backstop for a partner that
	// is alive but silent (a dropped message, a crashed nil program):
	// a partner whose program has returned is reported absent at once.
	RecvTimeout time.Duration
	// Spares is the number of spare nodes pre-registered beyond the
	// cube: physical labels 2^Dim .. 2^Dim+Spares-1 get endpoints and
	// reliable host links but no cube links. They sit idle —
	// contributing nothing to virtual time or traffic — until the
	// recovery supervisor activates one by remapping it into a future
	// attempt's cube. Negative is treated as zero.
	Spares int
	// Obs receives per-kind message and byte counters in addition to
	// the network's own Metrics; nil counts into none. Recording is
	// allocation-free and does not touch virtual clocks.
	Obs *obs.Metrics
	// Flight, when non-nil, attaches causal tracing: every endpoint
	// stamps outgoing messages with a trace trailer and records
	// send/recv events in its node's flight-recorder ring. The trailer
	// bytes are excluded from cost charging and byte metrics
	// (wire.CostedLen), so tracing never perturbs virtual time.
	Flight *forensic.Flight
	// Sched selects the delivery scheduler. Nil keeps the free-running
	// channel implementation — the zero-overhead path the benchmarks
	// pin. A scheduler (NewRandom, NewReplay, or the explorer's
	// enumerator) mediates every delivery through the coordinator in
	// controlled.go instead: slower, but every genuine race becomes a
	// recorded, replayable decision. Harnesses must then declare
	// workers via WorkerStart/WorkerDone (internal/node does).
	Sched Scheduler
}

// Network is one simulated multicomputer instance: the links, the host
// mailboxes, and any installed link faults, around the core it shares
// with tcpnet (cube, cost model, traffic counters, observability
// sinks). Create one with New. A free-running network is reusable
// across runs via Reset (controlled-scheduler networks are single-run:
// their coordinator state is not rewindable).
type Network struct {
	transport.Core

	// links[node][bit] is the inbound queue at node for messages from
	// its partner across dimension bit.
	links [][]chan packet
	// hostIn is the host's inbound mailbox (any node -> host).
	hostIn chan packet
	// hostOut[node] is node's inbound mailbox for host messages.
	hostOut []chan packet

	mu     sync.RWMutex
	faults map[[2]int][]LinkFault // key: {from, to}
	// faultCount mirrors the total number of installed faults so a send
	// can skip the fault table (and its RLock) entirely when the count
	// is zero — the common case for every no-fault benchmark run.
	faultCount atomic.Int32

	// free holds the idle frame buffers shared by all endpoints, one
	// list per size class (bufClass), each bounded by freeCap. Plain
	// slices under a mutex (rather than sync.Pool) keep Get/Put
	// allocation-free once warm: boxing a []byte in an interface would
	// itself allocate.
	free    [bufClasses]freeList
	freeCap int
	// held[id+1] is the pooled buffer behind processor id's most
	// recently delivered message (the host's at index 0), which its
	// zero-copy Payload aliases. It goes back to the free lists at the
	// processor's next receive or when it retires (WorkerDone), so frame
	// buffers outlive runs. Each slot belongs to its processor's
	// goroutine.
	held [][]byte
	// timers[id+1] is processor id's receive timer, indexed like held and
	// likewise kept across runs, so the steady state allocates no
	// timers. It is only ever Reset after a clean Stop or after its tick
	// was consumed, which is safe under both pre- and post-1.23 timer
	// semantics.
	timers []*time.Timer

	// ctrl is non-nil iff the network runs under a controlled
	// scheduler; every delivery then routes through it instead of the
	// raw channels. The free path pays one nil test.
	ctrl *controller
}

// Frame buffers come in power-of-two size classes, from 1<<minBufShift
// bytes up to the class of the largest frame wire.MaxPayload allows. A
// frame takes its buffer from the class its encoded size needs, so a
// buffer is never regrown and a large frame never lands in a small
// one.
const (
	minBufShift = 6
	bufClasses  = 22 // 64 B .. 128 MiB
)

// freeList is one size class of idle frame buffers.
type freeList struct {
	mu   sync.Mutex
	bufs [][]byte
}

// bufClass returns the size class whose buffers are the smallest that
// hold n bytes; it is bufClasses or more when none does.
func bufClass(n int) int {
	return max(bits.Len(uint(max(n, 1)-1)), minBufShift) - minBufShift
}

// getBuf returns an empty buffer with room for an n-byte frame.
func (nw *Network) getBuf(n int) []byte {
	c := bufClass(n)
	if c >= bufClasses {
		return nil // beyond any valid frame: the encoder refuses it
	}
	fl := &nw.free[c]
	fl.mu.Lock()
	if k := len(fl.bufs) - 1; k >= 0 {
		b := fl.bufs[k]
		fl.bufs = fl.bufs[:k]
		fl.mu.Unlock()
		return b[:0]
	}
	fl.mu.Unlock()
	return make([]byte, 0, 1<<(c+minBufShift))
}

// putBuf returns a buffer getBuf made to its class's free list.
func (nw *Network) putBuf(b []byte) {
	c := bufClass(cap(b))
	if c >= bufClasses || cap(b) != 1<<(c+minBufShift) {
		return
	}
	fl := &nw.free[c]
	fl.mu.Lock()
	if len(fl.bufs) < nw.freeCap {
		fl.bufs = append(fl.bufs, b)
	}
	fl.mu.Unlock()
}

// release recycles the buffer behind processor id's last delivered
// message; only id's goroutine, or whoever retires it, may call it.
func (nw *Network) release(id int) {
	if i := id + 1; i >= 0 && i < len(nw.held) && nw.held[i] != nil {
		nw.putBuf(nw.held[i])
		nw.held[i] = nil
	}
}

// New constructs a network for the given configuration.
func New(cfg Config) (*Network, error) {
	net := &Network{faults: make(map[[2]int][]LinkFault)}
	if err := net.Init("simnet", cfg.Dim, cfg.Cost, cfg.RecvTimeout, cfg.Spares, cfg.Obs, cfg.Flight); err != nil {
		return nil, err
	}
	topo, n := net.Topology(), net.Topology().Nodes()
	net.links = make([][]chan packet, n)
	net.hostIn = make(chan packet, 4*n+16)
	net.hostOut = make([]chan packet, n+net.Spares())
	net.freeCap = 4*n + 16
	net.held = make([][]byte, 1+n+net.Spares())
	net.timers = make([]*time.Timer, len(net.held))
	for id := 0; id < n; id++ {
		net.links[id] = make([]chan packet, topo.Dim())
		for b := 0; b < topo.Dim(); b++ {
			net.links[id][b] = make(chan packet, linkQueueDepth)
		}
	}
	// Spares share the reliable host interface (that is how they would
	// be loaded and activated) but have no cube links until a remap
	// promotes one into the cube proper.
	for id := range net.hostOut {
		net.hostOut[id] = make(chan packet, linkQueueDepth)
	}
	if cfg.Sched != nil {
		net.ctrl = newController(net, cfg.Sched)
	}
	return net, nil
}

// Reset readies a quiescent free-running network for another run: all
// link and host mailboxes are drained (pooled buffers returned to the
// free list, end-of-traffic markers discarded), installed link faults
// are removed, and the core's traffic counters are zeroed and its
// observability sinks rebound (transport.Core.Reset). Must only be
// called between runs, when no endpoint or host goroutine is live.
// Controlled networks refuse: their coordinator state is not
// rewindable.
func (nw *Network) Reset(obsM *obs.Metrics, flight *forensic.Flight) error {
	if nw.ctrl != nil {
		return errors.New("simnet: controlled-scheduler networks are single-run")
	}
	for _, chans := range nw.links {
		for _, ch := range chans {
			nw.drainPackets(ch)
		}
	}
	for _, ch := range nw.hostOut {
		nw.drainPackets(ch)
	}
	nw.drainPackets(nw.hostIn)
	nw.mu.Lock()
	clear(nw.faults)
	nw.mu.Unlock()
	nw.faultCount.Store(0)
	nw.Core.Reset(obsM, flight)
	return nil
}

// Close implements transport.Network. A simnet network holds only
// memory, which the garbage collector reclaims, so there is nothing to
// release.
func (nw *Network) Close() {}

// drainPackets empties a mailbox without blocking, recycling pooled
// buffers.
func (nw *Network) drainPackets(ch chan packet) {
	for {
		select {
		case pkt := <-ch:
			if pkt.pooled {
				nw.putBuf(pkt.raw)
			}
		default:
			return
		}
	}
}

// InstallLinkFault attaches a fault interceptor to the directed link
// from -> to. Multiple faults compose in installation order. Host
// links are reliable by assumption and cannot be faulted.
func (nw *Network) InstallLinkFault(from, to int, f LinkFault) error {
	if !nw.Topology().AreNeighbors(from, to) {
		return fmt.Errorf("simnet: %d -> %d is not a hypercube link", from, to)
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	key := [2]int{from, to}
	nw.faults[key] = append(nw.faults[key], f)
	nw.faultCount.Add(1)
	return nil
}

// intercept runs a frame sent from node from into queue q through the
// faults installed on that link, in installation order, and returns
// what is actually delivered. Host links are reliable by assumption and
// deliver the frame as sent.
func (nw *Network) intercept(from int, q QueueID, raw []byte) [][]byte {
	deliveries := [][]byte{raw}
	if q.Kind != QLink {
		return deliveries
	}
	nw.mu.RLock()
	faults := nw.faults[[2]int{from, q.Node}]
	nw.mu.RUnlock()
	for _, f := range faults {
		var next [][]byte
		for _, d := range deliveries {
			next = append(next, f.Apply(d)...)
		}
		deliveries = next
	}
	return deliveries
}

// hostInbox is the host's inbound mailbox: every node writes it.
var hostInbox = QueueID{Kind: QHostIn, Node: hostWorker}

// queue returns the channel behind a delivery queue.
func (nw *Network) queue(q QueueID) chan packet {
	switch q.Kind {
	case QLink:
		return nw.links[q.Node][q.Bit]
	case QHostIn:
		return nw.hostIn
	default:
		return nw.hostOut[q.Node]
	}
}

// proc is what a simnet Endpoint and Host share: the port that keeps
// the processor's virtual clock, and the receive state. Like the port
// it is confined to its processor's goroutine.
type proc struct {
	transport.Port
	net *Network
}

// send frames m at the port and queues it on q: a cube link, the host
// mailbox or a node's host downlink. Link faults apply on cube links
// only.
func (p *proc) send(q QueueID, m *wire.Message) error {
	nw := p.net
	raw, arrival, err := p.Frame(nw.getBuf(wire.EncodedSize(m.PayloadLen())), q.Node, m)
	if err != nil {
		return err
	}
	if nw.ctrl != nil {
		// Controlled path: fault interceptors apply exactly as on the
		// free fault path, then the deliveries queue at the coordinator
		// instead of a channel. Buffers are never pooled — the recorded
		// schedule may outlive the run.
		nw.ctrl.send(p.ID(), q, nw.intercept(p.ID(), q, raw), arrival, m.Kind, m.Stage, m.Iter)
		return nil
	}
	ch := nw.queue(q)
	if q.Kind != QLink || nw.faultCount.Load() == 0 {
		// Lock-free fast path: no fault can touch the frame, so skip
		// the fault table and keep the buffer pooled.
		select {
		case ch <- packet{raw: raw, arrival: arrival, pooled: true}:
			return nil
		default:
			nw.putBuf(raw)
			return fmt.Errorf("simnet: %d -> %v: %w", p.ID(), q, ErrLinkBackpressure)
		}
	}
	// Fault path: interceptors may retain, alias, or split the buffer,
	// so deliveries leave the pool for good.
	for _, d := range nw.intercept(p.ID(), q, raw) {
		select {
		case ch <- packet{raw: d, arrival: arrival}:
		default:
			return fmt.Errorf("simnet: %d -> %v: %w", p.ID(), q, ErrLinkBackpressure)
		}
	}
	return nil
}

// wait takes the next packet from queue q, first recycling the buffer
// behind the previous delivery, which is what bounds the validity of a
// zero-copy Payload. Under a controlled scheduler the coordinator hands
// the packet over; free-running it comes off the channel, and the timer
// is armed only when nothing is queued yet. A poll never waits. ok is false when no packet came: the receive timed
// out, the coordinator declared absence, or a poll found the queue
// empty.
func (p *proc) wait(q QueueID, poll bool) (pkt packet, ok bool) {
	nw := p.net
	nw.release(p.ID())
	if nw.ctrl != nil {
		res := nw.ctrl.block(p.ID(), q, poll, p.Clock())
		return packet{raw: res.pkt.raw, arrival: res.pkt.arrival}, res.ok
	}
	ch := nw.queue(q)
	select {
	case pkt = <-ch:
	default:
		if poll {
			return packet{}, false
		}
		timer := &nw.timers[p.ID()+1]
		if *timer == nil {
			*timer = time.NewTimer(nw.RecvTimeout())
		} else {
			(*timer).Reset(nw.RecvTimeout())
		}
		select {
		case pkt = <-ch:
			if !(*timer).Stop() {
				// The timer fired meanwhile and its tick may still be in
				// flight: retire it rather than risk a stale tick on reuse.
				*timer = nil
			}
		case <-(*timer).C:
			return packet{}, false
		}
	}
	// A pooled buffer is recycled at the next receive, so the zero-copy
	// Payload of the message it carries stays valid until then.
	if pkt.pooled {
		nw.held[p.ID()+1] = pkt.raw
	}
	return pkt, true
}

// Endpoint is a node's handle on the network. Its port owns the node's
// virtual clock, and it is confined to that node's goroutine: none of
// its methods are safe for concurrent use.
type Endpoint struct {
	proc
	// gone has bit b set once the partner across dimension b is known
	// to have exited: its end-of-traffic marker was dequeued, so every
	// later Recv on b reports absence at once.
	gone uint32
}

// Endpoint returns the endpoint for a node. Call once per node before
// starting its goroutine. Spare labels (beyond the cube, when
// Config.Spares pre-registered them) get endpoints with host links
// only: their Send/Recv across cube dimensions fail until a recovery
// remap promotes the spare into a future attempt's cube.
func (nw *Network) Endpoint(id int) (transport.Endpoint, error) {
	if err := nw.CheckNode(id); err != nil {
		return nil, err
	}
	return &Endpoint{proc: proc{Port: nw.Port(id), net: nw}}, nil
}

// Send transmits a message to the partner across the given dimension
// bit. The sender's clock advances by the send cost; the message is
// stamped to arrive Latency ticks after departure. Installed link
// faults may drop, corrupt, or duplicate the message.
func (e *Endpoint) Send(bit int, m wire.Message) error {
	partner, err := e.Partner(bit)
	if err != nil {
		return err
	}
	return e.send(QueueID{Kind: QLink, Node: partner, Bit: bit}, &m)
}

// Recv blocks for the next message from the partner across the given
// dimension bit. The receiver's clock advances to at least the
// message's arrival time plus the receive cost. It returns ErrAbsent
// once the partner's program has returned without sending (its
// end-of-traffic marker follows every message it sent, and the verdict
// is sticky for later receives on the bit), or if nothing arrives
// within the network's wall-clock timeout from a partner that is still
// running; absence leaves the virtual clock alone. A decode error
// reports (possibly fault-corrupted) bytes that do not parse. Both are
// detectable faults under the paper's model.
//
// The returned message's Payload aliases a network-owned buffer and is
// valid only until the endpoint's next receive (Recv or RecvHost):
// decode or copy the payload before receiving again.
func (e *Endpoint) Recv(bit int) (wire.Message, error) {
	partner, err := e.Partner(bit)
	if err != nil {
		return wire.Message{}, err
	}
	if e.gone&(1<<uint(bit)) == 0 {
		pkt, ok := e.wait(QueueID{Kind: QLink, Node: e.ID(), Bit: bit}, false)
		switch {
		case pkt.gone:
			e.gone |= 1 << uint(bit)
		case ok:
			return e.Accept(pkt.raw, pkt.arrival)
		}
	}
	return wire.Message{}, fmt.Errorf("simnet: node %d waiting on link from %d: %w", e.ID(), partner, ErrAbsent)
}

// SendHost transmits a message to the host over the reliable host
// link.
func (e *Endpoint) SendHost(m wire.Message) error { return e.send(hostInbox, &m) }

// RecvHost blocks for the next message from the host. Like Recv, the
// returned Payload is valid only until the endpoint's next receive.
func (e *Endpoint) RecvHost() (wire.Message, error) {
	if pkt, ok := e.wait(QueueID{Kind: QHostOut, Node: e.ID()}, false); ok {
		return e.Accept(pkt.raw, pkt.arrival)
	}
	return wire.Message{}, fmt.Errorf("simnet: node %d waiting on host: %w", e.ID(), ErrAbsent)
}

// Host is the reliable host processor's handle on the network. Like
// Endpoint its port owns a virtual clock, and it is goroutine-confined.
type Host struct{ proc }

// Host returns the host endpoint. Call at most once per network.
func (nw *Network) Host() transport.Host {
	return &Host{proc{Port: nw.Port(int(wire.HostID)), net: nw}}
}

// Send transmits a message from the host to a node over the host
// interface (HostFixed/HostPerByte costs).
func (h *Host) Send(node int, m wire.Message) error {
	if err := h.net.CheckNode(node); err != nil {
		return err
	}
	return h.send(QueueID{Kind: QHostOut, Node: node}, &m)
}

// Recv blocks for the next message from any node. The returned
// Payload is valid only until the host's next receive.
func (h *Host) Recv() (wire.Message, error) {
	if pkt, ok := h.wait(hostInbox, false); ok {
		return h.Accept(pkt.raw, pkt.arrival)
	}
	return wire.Message{}, fmt.Errorf("simnet: host: %w", ErrAbsent)
}

// TryRecv returns the next pending host message without waiting for
// the full absence timeout; ok is false when the mailbox is empty.
// The host uses this to poll for ERROR signals between phases.
func (h *Host) TryRecv() (wire.Message, bool, error) {
	pkt, ok := h.wait(hostInbox, true)
	if !ok {
		return wire.Message{}, false, nil
	}
	m, err := h.Accept(pkt.raw, pkt.arrival)
	return m, err == nil, err
}
