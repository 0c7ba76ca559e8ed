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
// Time is virtual: every endpoint owns a deterministic tick clock.
// Sending charges the sender, receiving charges the receiver, and a
// message arrives at sender-departure-time + latency. The makespan of
// a run is the maximum node clock, which plays the role of the paper's
// measured "clock ticks".
package simnet

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hypercube"
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
// marks buffers owned by the network's free list: the receiver recycles
// them at its next receive. Fault-path deliveries are never pooled,
// since interceptors may retain or alias the buffer. gone marks an
// end-of-traffic marker instead of a message: the sender's program has
// returned, so nothing follows it on the link.
type packet struct {
	raw     []byte
	arrival Ticks
	pooled  bool
	gone    bool
}

// LinkFault intercepts traffic on one directed link. Apply receives
// the encoded message and returns the list of raw messages actually
// delivered: return nil to drop, a modified buffer to corrupt, or
// multiple buffers to duplicate. Implementations live in
// internal/fault; simnet only defines the seam.
type LinkFault interface {
	Apply(raw []byte) [][]byte
}

// Metrics aggregates traffic counters for a run. Counters are atomic;
// snapshots are taken with Snapshot after the run completes.
type Metrics struct {
	msgs  [8]atomic.Int64 // indexed by wire.Kind
	bytes [8]atomic.Int64
}

// MetricsSnapshot is a point-in-time copy of the traffic counters
// (alias of transport.MetricsSnapshot).
type MetricsSnapshot = transport.MetricsSnapshot

func (m *Metrics) record(kind wire.Kind, n int) {
	if int(kind) < len(m.msgs) {
		m.msgs[kind].Add(1)
		m.bytes[kind].Add(int64(n))
	}
}

// Snapshot copies the counters into a map-based view.
func (m *Metrics) Snapshot() MetricsSnapshot {
	s := MetricsSnapshot{
		MsgsByKind:  make(map[wire.Kind]int64),
		BytesByKind: make(map[wire.Kind]int64),
	}
	for k := wire.Kind(1); int(k) < len(m.msgs); k++ {
		if n := m.msgs[k].Load(); n != 0 {
			s.MsgsByKind[k] = n
			s.BytesByKind[k] = m.bytes[k].Load()
		}
	}
	return s
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
	// the network's own Metrics. Nil means obs.DefaultMetrics(), so the
	// process-wide /metrics endpoint sees traffic without explicit
	// plumbing; recording is allocation-free and does not touch virtual
	// clocks.
	Obs *obs.Metrics
	// Flight, when non-nil, attaches causal tracing: every endpoint
	// stamps outgoing messages with a trace trailer and records
	// send/recv events in its node's flight-recorder ring. The trailer
	// bytes are excluded from cost charging and byte metrics
	// (wire.CostedLen), so tracing never perturbs virtual time.
	Flight *forensic.Flight
	// Sched selects the delivery scheduler. Nil (or Free()) keeps the
	// free-running channel implementation — the zero-overhead path the
	// benchmarks pin. Any controlled scheduler (NewRandom, NewReplay,
	// or the explorer's enumerator) mediates every delivery through the
	// coordinator in controlled.go instead: slower, but every genuine
	// race becomes a recorded, replayable decision. Harnesses must then
	// declare workers via WorkerStart/WorkerDone (internal/node does).
	Sched Scheduler
}

// Network is one simulated multicomputer instance: the links, the host
// mailboxes, the metrics, and any installed link faults. Create one
// with New. A free-running network is reusable across runs via Reset
// (controlled-scheduler networks are single-run: their coordinator
// state is not rewindable).
type Network struct {
	topo        hypercube.Topology
	cost        CostModel
	recvTimeout time.Duration
	// spares counts the idle spare endpoints registered beyond the
	// cube; they own host links only.
	spares int

	// links[node][bit] is the inbound queue at node for messages from
	// its partner across dimension bit.
	links [][]chan packet
	// hostIn is the host's inbound mailbox (any node -> host).
	hostIn chan packet
	// hostOut[node] is node's inbound mailbox for host messages.
	hostOut []chan packet

	mu     sync.RWMutex
	faults map[[2]int][]LinkFault // key: {from, to}
	// faultCount mirrors the total number of installed faults so Send
	// can skip the fault table (and its RLock) entirely when the count
	// is zero — the common case for every no-fault benchmark run.
	faultCount atomic.Int32

	// pool is a free list of message buffers shared by all endpoints.
	// A channel (rather than sync.Pool) keeps Get/Put allocation-free:
	// boxing a []byte in an interface would itself allocate.
	pool chan []byte

	metrics Metrics
	obsM    *obs.Metrics
	flight  *forensic.Flight

	// ctrl is non-nil iff the network runs under a controlled
	// scheduler; every delivery then routes through it instead of the
	// raw channels. The free path pays one nil test.
	ctrl *controller
}

// poolBufCap sizes fresh pool buffers to hold an FT-exchange frame for
// the dimensions the experiments sweep without regrowth.
const poolBufCap = 1024

func (nw *Network) getBuf() []byte {
	select {
	case b := <-nw.pool:
		return b[:0]
	default:
		return make([]byte, 0, poolBufCap)
	}
}

func (nw *Network) putBuf(b []byte) {
	if cap(b) == 0 {
		return
	}
	select {
	case nw.pool <- b:
	default: // pool full; let the GC have it
	}
}

// New constructs a network for the given configuration.
func New(cfg Config) (*Network, error) {
	topo, err := hypercube.New(cfg.Dim)
	if err != nil {
		return nil, fmt.Errorf("simnet: %w", err)
	}
	cost := cfg.Cost
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	timeout := cfg.RecvTimeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	obsM := cfg.Obs
	if obsM == nil {
		obsM = obs.DefaultMetrics()
	}
	spares := cfg.Spares
	if spares < 0 {
		spares = 0
	}
	n := topo.Nodes()
	net := &Network{
		topo:        topo,
		cost:        cost,
		recvTimeout: timeout,
		spares:      spares,
		links:       make([][]chan packet, n),
		hostIn:      make(chan packet, 4*n+16),
		hostOut:     make([]chan packet, n+spares),
		faults:      make(map[[2]int][]LinkFault),
		pool:        make(chan []byte, 4*n+16),
		obsM:        obsM,
		flight:      cfg.Flight,
	}
	for id := 0; id < n; id++ {
		net.links[id] = make([]chan packet, topo.Dim())
		for b := 0; b < topo.Dim(); b++ {
			net.links[id][b] = make(chan packet, linkQueueDepth)
		}
	}
	// Spares share the reliable host interface (that is how they would
	// be loaded and activated) but have no cube links until a remap
	// promotes one into the cube proper.
	for id := 0; id < n+spares; id++ {
		net.hostOut[id] = make(chan packet, linkQueueDepth)
	}
	if cfg.Sched != nil && cfg.Sched.Controlled() {
		net.ctrl = newController(net, cfg.Sched)
	}
	return net, nil
}

// Spares returns the number of idle spare endpoints registered beyond
// the cube.
func (nw *Network) Spares() int { return nw.spares }

// isSpare reports whether id names a registered spare (a label beyond
// the cube with a host link but no cube links).
func (nw *Network) isSpare(id int) bool {
	return id >= nw.topo.Nodes() && id < nw.topo.Nodes()+nw.spares
}

// Reset readies a quiescent free-running network for another run: all
// link and host mailboxes are drained (pooled buffers returned to the
// free list, end-of-traffic markers discarded), installed link faults
// are removed, the per-run traffic counters are zeroed, and the
// observability sinks are rebound (nil obsM selects
// obs.DefaultMetrics, mirroring New). Must only be called between runs,
// when no endpoint or host goroutine is live. Controlled networks
// refuse: their coordinator state is not rewindable.
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
	for k := range nw.metrics.msgs {
		nw.metrics.msgs[k].Store(0)
		nw.metrics.bytes[k].Store(0)
	}
	if obsM == nil {
		obsM = obs.DefaultMetrics()
	}
	nw.obsM = obsM
	nw.flight = flight
	return nil
}

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

// Topology returns the underlying hypercube.
func (nw *Network) Topology() hypercube.Topology { return nw.topo }

// Cost returns the network's cost model.
func (nw *Network) Cost() CostModel { return nw.cost }

// Metrics returns a snapshot of the traffic counters.
func (nw *Network) Metrics() MetricsSnapshot { return nw.metrics.Snapshot() }

// InstallLinkFault attaches a fault interceptor to the directed link
// from -> to. Multiple faults compose in installation order. Host
// links are reliable by assumption and cannot be faulted.
func (nw *Network) InstallLinkFault(from, to int, f LinkFault) error {
	if !nw.topo.AreNeighbors(from, to) {
		return fmt.Errorf("simnet: %d -> %d is not a hypercube link", from, to)
	}
	nw.mu.Lock()
	defer nw.mu.Unlock()
	key := [2]int{from, to}
	nw.faults[key] = append(nw.faults[key], f)
	nw.faultCount.Add(1)
	return nil
}

func (nw *Network) linkFaults(from, to int) []LinkFault {
	nw.mu.RLock()
	defer nw.mu.RUnlock()
	return nw.faults[[2]int{from, to}]
}

// Endpoint is a node's handle on the network. It owns the node's
// virtual clock and is confined to that node's goroutine: none of its
// methods are safe for concurrent use.
type Endpoint struct {
	net *Network
	id  int

	clock     Ticks
	commTicks Ticks
	compTicks Ticks

	// recvTimer is reused across blocking receives so the steady state
	// allocates no timers. It is only ever Reset after a clean Stop or
	// after its tick was consumed, which is safe under both pre- and
	// post-1.23 timer semantics.
	recvTimer *time.Timer
	// pendingFree is the pooled buffer backing the most recently
	// delivered message; it is recycled at the next receive, which is
	// what bounds the validity of a zero-copy Payload.
	pendingFree []byte
	// gone has bit b set once the partner across dimension b is known
	// to have exited: its end-of-traffic marker was dequeued, so every
	// later Recv on b reports absence at once.
	gone uint32

	// rec is the node's flight recorder, nil when the network has no
	// Flight attached (a nil recorder discards, so hot paths pay one
	// pointer test).
	rec *forensic.Recorder
}

// release recycles the buffer behind the previously delivered message.
func (e *Endpoint) release() {
	if e.pendingFree != nil {
		e.net.putBuf(e.pendingFree)
		e.pendingFree = nil
	}
}

// armTimer returns the endpoint's receive timer, running with the
// network's timeout.
func (e *Endpoint) armTimer() *time.Timer {
	if e.recvTimer == nil {
		e.recvTimer = time.NewTimer(e.net.recvTimeout)
	} else {
		e.recvTimer.Reset(e.net.recvTimeout)
	}
	return e.recvTimer
}

// disarmTimer stops the receive timer after a successful receive. If
// the timer already fired its tick may still be in flight, so the timer
// is retired instead of risking a stale tick on reuse.
func (e *Endpoint) disarmTimer() {
	if !e.recvTimer.Stop() {
		e.recvTimer = nil
	}
}

// Endpoint returns the endpoint for a node. Call once per node before
// starting its goroutine. Spare labels (beyond the cube, when
// Config.Spares pre-registered them) get endpoints with host links
// only: their Send/Recv across cube dimensions fail until a recovery
// remap promotes the spare into a future attempt's cube.
func (nw *Network) Endpoint(id int) (transport.Endpoint, error) {
	if !nw.topo.Contains(id) && !nw.isSpare(id) {
		return nil, fmt.Errorf("simnet: node %d outside cube of %d nodes (+%d spares)",
			id, nw.topo.Nodes(), nw.spares)
	}
	return &Endpoint{net: nw, id: id, rec: nw.flight.Node(id)}, nil
}

// ID returns the node label.
func (e *Endpoint) ID() int { return e.id }

// Topology returns the hypercube the endpoint belongs to.
func (e *Endpoint) Topology() hypercube.Topology { return e.net.topo }

// Clock returns the node's current virtual time.
func (e *Endpoint) Clock() Ticks { return e.clock }

// CommTicks returns the virtual time this node spent on communication.
func (e *Endpoint) CommTicks() Ticks { return e.commTicks }

// CompTicks returns the virtual time this node spent computing.
func (e *Endpoint) CompTicks() Ticks { return e.compTicks }

// Compute advances the node clock by a computation cost.
func (e *Endpoint) Compute(t Ticks) {
	if t < 0 {
		t = 0
	}
	e.clock += t
	e.compTicks += t
}

// ChargeCompare charges the cost of n key comparisons.
func (e *Endpoint) ChargeCompare(n int) { e.Compute(Ticks(n) * e.net.cost.Compare) }

// ChargeKeyMove charges the cost of moving n keys in local memory.
func (e *Endpoint) ChargeKeyMove(n int) { e.Compute(Ticks(n) * e.net.cost.KeyMove) }

// Send transmits a message to the partner across the given dimension
// bit. The sender's clock advances by the send cost; the message is
// stamped to arrive Latency ticks after departure. Installed link
// faults may drop, corrupt, or duplicate the message.
func (e *Endpoint) Send(bit int, m wire.Message) error {
	if e.net.isSpare(e.id) {
		return fmt.Errorf("simnet: spare node %d has no cube links", e.id)
	}
	partner, err := e.net.topo.Partner(e.id, bit)
	if err != nil {
		return fmt.Errorf("simnet: send: %w", err)
	}
	m.From = int32(e.id)
	m.To = int32(partner)
	if e.rec != nil {
		m.Trace = e.rec.Send(m.Kind, m.To, m.Stage, m.Iter, int64(e.clock))
	}
	buf := e.net.getBuf()
	raw, err := wire.AppendMessage(buf, m)
	if err != nil {
		e.net.putBuf(buf)
		return fmt.Errorf("simnet: send: %w", err)
	}
	costed := wire.CostedLen(len(raw))
	cost := e.net.cost.SendFixed + Ticks(costed)*e.net.cost.SendPerByte
	e.clock += cost
	e.commTicks += cost
	e.net.metrics.record(m.Kind, costed)
	e.net.obsM.RecordMessage(m.Kind, costed)
	arrival := e.clock + e.net.cost.Latency

	if e.net.ctrl != nil {
		// Controlled path: fault interceptors apply exactly as on the
		// free fault path, then the deliveries queue at the coordinator
		// instead of a channel. Buffers are never pooled — the recorded
		// schedule may outlive the run.
		deliveries := [][]byte{raw}
		if e.net.faultCount.Load() != 0 {
			for _, f := range e.net.linkFaults(e.id, partner) {
				var next [][]byte
				for _, d := range deliveries {
					next = append(next, f.Apply(d)...)
				}
				deliveries = next
			}
		}
		e.net.ctrl.send(e.id, QueueID{Kind: QLink, Node: partner, Bit: bit}, deliveries, arrival, m.Kind, m.Stage, m.Iter)
		return nil
	}

	if e.net.faultCount.Load() == 0 {
		// Lock-free fast path: no fault anywhere in the network, so
		// skip the fault-table RLock and keep the buffer pooled.
		select {
		case e.net.links[partner][bit] <- packet{raw: raw, arrival: arrival, pooled: true}:
			return nil
		default:
			e.net.putBuf(raw)
			return fmt.Errorf("simnet: %d -> %d: %w", e.id, partner, ErrLinkBackpressure)
		}
	}

	// Fault path: interceptors may retain, alias, or split the buffer,
	// so deliveries leave the pool for good.
	deliveries := [][]byte{raw}
	for _, f := range e.net.linkFaults(e.id, partner) {
		var next [][]byte
		for _, d := range deliveries {
			next = append(next, f.Apply(d)...)
		}
		deliveries = next
	}
	for _, d := range deliveries {
		select {
		case e.net.links[partner][bit] <- packet{raw: d, arrival: arrival}:
		default:
			return fmt.Errorf("simnet: %d -> %d: %w", e.id, partner, ErrLinkBackpressure)
		}
	}
	return nil
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
	if e.net.isSpare(e.id) {
		return wire.Message{}, fmt.Errorf("simnet: spare node %d has no cube links", e.id)
	}
	if bit < 0 || bit >= e.net.topo.Dim() {
		return wire.Message{}, fmt.Errorf("simnet: recv: bit %d outside dimension %d", bit, e.net.topo.Dim())
	}
	e.release()
	if e.net.ctrl != nil {
		res := e.net.ctrl.block(e.id, QueueID{Kind: QLink, Node: e.id, Bit: bit}, false, e.clock)
		if !res.ok {
			return wire.Message{}, e.absent(bit)
		}
		return e.acceptPacket(packet{raw: res.pkt.raw, arrival: res.pkt.arrival})
	}
	if e.gone&(1<<uint(bit)) != 0 {
		return wire.Message{}, e.absent(bit)
	}
	ch := e.net.links[e.id][bit]
	// Fast path: a queued packet means no timer is needed at all.
	select {
	case pkt := <-ch:
		return e.deliver(bit, pkt)
	default:
	}
	timer := e.armTimer()
	select {
	case pkt := <-ch:
		e.disarmTimer()
		return e.deliver(bit, pkt)
	case <-timer.C:
		return wire.Message{}, e.absent(bit)
	}
}

// deliver accepts a packet dequeued from the link across bit. An
// end-of-traffic marker instead marks the partner gone and reports its
// absence.
func (e *Endpoint) deliver(bit int, pkt packet) (wire.Message, error) {
	if pkt.gone {
		e.gone |= 1 << uint(bit)
		return wire.Message{}, e.absent(bit)
	}
	return e.acceptPacket(pkt)
}

// absent is the absence error for the link across bit, the same whether
// a marker, the timer or the controlled scheduler established it.
func (e *Endpoint) absent(bit int) error {
	partner, _ := e.net.topo.Partner(e.id, bit)
	return fmt.Errorf("simnet: node %d waiting on link from %d: %w", e.id, partner, ErrAbsent)
}

func (e *Endpoint) acceptPacket(pkt packet) (wire.Message, error) {
	if pkt.arrival > e.clock {
		// Waiting time is idle, charged to neither comm nor comp.
		e.clock = pkt.arrival
	}
	cost := e.net.cost.RecvFixed + Ticks(wire.CostedLen(len(pkt.raw)))*e.net.cost.RecvPerByte
	e.clock += cost
	e.commTicks += cost
	m, err := wire.DecodeFrom(pkt.raw)
	if err != nil {
		if pkt.pooled {
			e.net.putBuf(pkt.raw)
		}
		return wire.Message{}, fmt.Errorf("simnet: node %d: garbled message: %w", e.id, err)
	}
	if e.rec != nil {
		e.rec.Recv(&m, int64(e.clock))
	}
	if pkt.pooled {
		e.pendingFree = pkt.raw
	}
	return m, nil
}

// SendHost transmits a message to the host over the reliable host
// link. Host links bypass fault interceptors.
func (e *Endpoint) SendHost(m wire.Message) error {
	m.From = int32(e.id)
	m.To = wire.HostID
	if e.rec != nil {
		m.Trace = e.rec.Send(m.Kind, m.To, m.Stage, m.Iter, int64(e.clock))
	}
	buf := e.net.getBuf()
	raw, err := wire.AppendMessage(buf, m)
	if err != nil {
		e.net.putBuf(buf)
		return fmt.Errorf("simnet: send host: %w", err)
	}
	costed := wire.CostedLen(len(raw))
	cost := e.net.cost.SendFixed + Ticks(costed)*e.net.cost.SendPerByte
	e.clock += cost
	e.commTicks += cost
	e.net.metrics.record(m.Kind, costed)
	e.net.obsM.RecordMessage(m.Kind, costed)
	if e.net.ctrl != nil {
		e.net.ctrl.send(e.id, QueueID{Kind: QHostIn, Node: hostWorker}, [][]byte{raw}, e.clock+e.net.cost.Latency, m.Kind, m.Stage, m.Iter)
		return nil
	}
	// Host links bypass fault interceptors, so the buffer stays pooled.
	select {
	case e.net.hostIn <- packet{raw: raw, arrival: e.clock + e.net.cost.Latency, pooled: true}:
		return nil
	default:
		e.net.putBuf(raw)
		return fmt.Errorf("simnet: node %d -> host: %w", e.id, ErrLinkBackpressure)
	}
}

// RecvHost blocks for the next message from the host. Like Recv, the
// returned Payload is valid only until the endpoint's next receive.
func (e *Endpoint) RecvHost() (wire.Message, error) {
	e.release()
	if e.net.ctrl != nil {
		res := e.net.ctrl.block(e.id, QueueID{Kind: QHostOut, Node: e.id}, false, e.clock)
		if !res.ok {
			return wire.Message{}, fmt.Errorf("simnet: node %d waiting on host: %w", e.id, ErrAbsent)
		}
		return e.acceptPacket(packet{raw: res.pkt.raw, arrival: res.pkt.arrival})
	}
	ch := e.net.hostOut[e.id]
	select {
	case pkt := <-ch:
		return e.acceptPacket(pkt)
	default:
	}
	timer := e.armTimer()
	select {
	case pkt := <-ch:
		e.disarmTimer()
		return e.acceptPacket(pkt)
	case <-timer.C:
		return wire.Message{}, fmt.Errorf("simnet: node %d waiting on host: %w", e.id, ErrAbsent)
	}
}

// Host is the reliable host processor's handle on the network. Like
// Endpoint it owns a virtual clock and is goroutine-confined.
type Host struct {
	net *Network

	clock     Ticks
	commTicks Ticks
	compTicks Ticks

	recvTimer   *time.Timer
	pendingFree []byte
	rec         *forensic.Recorder
}

// release recycles the buffer behind the previously delivered message.
func (h *Host) release() {
	if h.pendingFree != nil {
		h.net.putBuf(h.pendingFree)
		h.pendingFree = nil
	}
}

func (h *Host) armTimer() *time.Timer {
	if h.recvTimer == nil {
		h.recvTimer = time.NewTimer(h.net.recvTimeout)
	} else {
		h.recvTimer.Reset(h.net.recvTimeout)
	}
	return h.recvTimer
}

func (h *Host) disarmTimer() {
	if !h.recvTimer.Stop() {
		h.recvTimer = nil
	}
}

// Host returns the host endpoint. Call at most once per network.
func (nw *Network) Host() transport.Host { return &Host{net: nw, rec: nw.flight.Host()} }

// Clock returns the host's current virtual time.
func (h *Host) Clock() Ticks { return h.clock }

// CommTicks returns the virtual time the host spent on communication.
func (h *Host) CommTicks() Ticks { return h.commTicks }

// CompTicks returns the virtual time the host spent computing.
func (h *Host) CompTicks() Ticks { return h.compTicks }

// Compute advances the host clock by a computation cost.
func (h *Host) Compute(t Ticks) {
	if t < 0 {
		t = 0
	}
	h.clock += t
	h.compTicks += t
}

// ChargeCompare charges the host for n key comparisons.
func (h *Host) ChargeCompare(n int) { h.Compute(Ticks(n) * h.net.cost.Compare) }

// ChargeKeyMove charges the host for moving n keys.
func (h *Host) ChargeKeyMove(n int) { h.Compute(Ticks(n) * h.net.cost.KeyMove) }

// Send transmits a message from the host to a node over the host
// interface (HostFixed/HostPerByte costs).
func (h *Host) Send(node int, m wire.Message) error {
	if !h.net.topo.Contains(node) && !h.net.isSpare(node) {
		return fmt.Errorf("simnet: host send: node %d outside cube of %d nodes (+%d spares)",
			node, h.net.topo.Nodes(), h.net.spares)
	}
	m.From = wire.HostID
	m.To = int32(node)
	if h.rec != nil {
		m.Trace = h.rec.Send(m.Kind, m.To, m.Stage, m.Iter, int64(h.clock))
	}
	buf := h.net.getBuf()
	raw, err := wire.AppendMessage(buf, m)
	if err != nil {
		h.net.putBuf(buf)
		return fmt.Errorf("simnet: host send: %w", err)
	}
	costed := wire.CostedLen(len(raw))
	cost := h.net.cost.HostFixed + Ticks(costed)*h.net.cost.HostPerByte
	h.clock += cost
	h.commTicks += cost
	h.net.metrics.record(m.Kind, costed)
	h.net.obsM.RecordMessage(m.Kind, costed)
	if h.net.ctrl != nil {
		h.net.ctrl.send(hostWorker, QueueID{Kind: QHostOut, Node: node}, [][]byte{raw}, h.clock+h.net.cost.Latency, m.Kind, m.Stage, m.Iter)
		return nil
	}
	select {
	case h.net.hostOut[node] <- packet{raw: raw, arrival: h.clock + h.net.cost.Latency, pooled: true}:
		return nil
	default:
		h.net.putBuf(raw)
		return fmt.Errorf("simnet: host -> %d: %w", node, ErrLinkBackpressure)
	}
}

// acceptPacket advances the host clock for a delivery and decodes it
// zero-copy; the payload stays valid until the host's next receive.
func (h *Host) acceptPacket(pkt packet) (wire.Message, error) {
	if pkt.arrival > h.clock {
		h.clock = pkt.arrival
	}
	cost := h.net.cost.HostFixed + Ticks(wire.CostedLen(len(pkt.raw)))*h.net.cost.HostPerByte
	h.clock += cost
	h.commTicks += cost
	m, err := wire.DecodeFrom(pkt.raw)
	if err != nil {
		if pkt.pooled {
			h.net.putBuf(pkt.raw)
		}
		return wire.Message{}, fmt.Errorf("simnet: host: garbled message: %w", err)
	}
	if h.rec != nil {
		h.rec.Recv(&m, int64(h.clock))
	}
	if pkt.pooled {
		h.pendingFree = pkt.raw
	}
	return m, nil
}

// Recv blocks for the next message from any node. The returned
// Payload is valid only until the host's next receive.
func (h *Host) Recv() (wire.Message, error) {
	h.release()
	if h.net.ctrl != nil {
		res := h.net.ctrl.block(hostWorker, QueueID{Kind: QHostIn, Node: hostWorker}, false, h.clock)
		if !res.ok {
			return wire.Message{}, fmt.Errorf("simnet: host: %w", ErrAbsent)
		}
		return h.acceptPacket(packet{raw: res.pkt.raw, arrival: res.pkt.arrival})
	}
	select {
	case pkt := <-h.net.hostIn:
		return h.acceptPacket(pkt)
	default:
	}
	timer := h.armTimer()
	select {
	case pkt := <-h.net.hostIn:
		h.disarmTimer()
		return h.acceptPacket(pkt)
	case <-timer.C:
		return wire.Message{}, fmt.Errorf("simnet: host: %w", ErrAbsent)
	}
}

// TryRecv returns the next pending host message without waiting for
// the full absence timeout; ok is false when the mailbox is empty.
// The host uses this to poll for ERROR signals between phases.
func (h *Host) TryRecv() (m wire.Message, ok bool, err error) {
	h.release()
	if h.net.ctrl != nil {
		res := h.net.ctrl.block(hostWorker, QueueID{Kind: QHostIn, Node: hostWorker}, true, h.clock)
		if !res.ok {
			return wire.Message{}, false, nil
		}
		msg, derr := h.acceptPacket(packet{raw: res.pkt.raw, arrival: res.pkt.arrival})
		if derr != nil {
			return wire.Message{}, false, derr
		}
		return msg, true, nil
	}
	select {
	case pkt := <-h.net.hostIn:
		msg, derr := h.acceptPacket(pkt)
		if derr != nil {
			return wire.Message{}, false, derr
		}
		return msg, true, nil
	default:
		return wire.Message{}, false, nil
	}
}
