package transport

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/wire"
)

// Core is the state a network shares with every port it hands out: the
// cube, the cost model, the receive timeout, the spare inventory, the
// per-kind traffic counters and the observability sinks. Both network
// implementations embed one.
type Core struct {
	// name prefixes errors: "simnet" or "tcpnet".
	name        string
	topo        hypercube.Topology
	cost        CostModel
	recvTimeout time.Duration
	// spares counts the idle spare endpoints registered beyond the
	// cube; they own host links only.
	spares int

	// msgs and bytes count the run's traffic, indexed by wire.Kind.
	// Every port records into them, hence atomics.
	msgs   [8]atomic.Int64
	bytes  [8]atomic.Int64
	obsM   *obs.Metrics
	flight *forensic.Flight
}

// Init sets up the core of a network named name over a cube of the
// given dimension, applying the defaults both networks share: a zero
// cost model means DefaultCostModel, a zero receive timeout 2 seconds
// and negative spares zero; obsM and flight are bound as by Reset. A
// network embeds its Core by value, so the core costs no allocation of
// its own, and calls Init once, from its constructor.
func (c *Core) Init(name string, dim int, cost CostModel, recvTimeout time.Duration, spares int,
	obsM *obs.Metrics, flight *forensic.Flight) error {
	topo, err := hypercube.New(dim)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if cost == (CostModel{}) {
		cost = DefaultCostModel()
	}
	if recvTimeout == 0 {
		recvTimeout = 2 * time.Second
	}
	c.name, c.topo, c.cost, c.recvTimeout, c.spares = name, topo, cost, recvTimeout, max(spares, 0)
	c.Reset(obsM, flight)
	return nil
}

// Reset zeroes the traffic counters and rebinds the observability
// sinks for the next run. A nil obsM counts traffic into no metrics,
// only into the network's own counters (Metrics); a nil flight
// detaches causal tracing. Call it only between runs, when no port is
// live.
func (c *Core) Reset(obsM *obs.Metrics, flight *forensic.Flight) {
	for k := range c.msgs {
		c.msgs[k].Store(0)
		c.bytes[k].Store(0)
	}
	c.obsM, c.flight = obsM, flight
}

// Topology returns the underlying hypercube.
func (c *Core) Topology() hypercube.Topology { return c.topo }

// Cost returns the network's cost model.
func (c *Core) Cost() CostModel { return c.cost }

// RecvTimeout returns how long a receive waits in wall-clock time
// before declaring the message absent.
func (c *Core) RecvTimeout() time.Duration { return c.recvTimeout }

// Spares returns the number of idle spare endpoints registered beyond
// the cube.
func (c *Core) Spares() int { return c.spares }

// CheckNode reports an error unless id labels a cube node or a
// registered spare: labels 2^Dim .. 2^Dim+Spares-1, which get
// endpoints and reliable host links but no cube links until a recovery
// remap promotes one into a future attempt's cube.
func (c *Core) CheckNode(id int) error {
	if id >= 0 && id < c.topo.Nodes()+c.spares {
		return nil
	}
	return fmt.Errorf("%s: node %d outside cube of %d nodes (+%d spares)", c.name, id, c.topo.Nodes(), c.spares)
}

// Metrics snapshots the traffic counters.
func (c *Core) Metrics() MetricsSnapshot {
	var s MetricsSnapshot
	for k := range c.msgs {
		s.MsgsByKind[k] = c.msgs[k].Load()
		s.BytesByKind[k] = c.bytes[k].Load()
	}
	return s
}

// Port returns the port of node id, or of the host when id is
// wire.HostID, with its clocks at zero. Validate id with CheckNode
// first.
func (c *Core) Port(id int) Port {
	p := Port{core: c, id: id, rec: c.flight.Node(id),
		send: charge{c.cost.SendFixed, c.cost.SendPerByte},
		recv: charge{c.cost.RecvFixed, c.cost.RecvPerByte}}
	if id == int(wire.HostID) {
		p.send = charge{c.cost.HostFixed, c.cost.HostPerByte}
		p.recv = p.send
	}
	return p
}

// charge is a per-message cost: fixed ticks plus perByte ticks for
// every costed byte.
type charge struct{ fixed, perByte Ticks }

func (c charge) of(costed int) Ticks { return c.fixed + Ticks(costed)*c.perByte }

// Port is one processor's side of a network: a node's or the host's
// virtual clock, and the rule that charges it. Sending charges the
// sender, a message arrives Latency ticks after it departs, and
// receiving charges the receiver. A node pays SendFixed/SendPerByte to
// send and RecvFixed/RecvPerByte to receive; the host pays
// HostFixed/HostPerByte both ways. Every framed message is counted per
// kind and, with a flight recorder attached, traced. Each network's
// Endpoint and Host embed a Port and add only how a frame reaches its
// queue and how a receive waits. Like them, a Port is confined to its
// processor's goroutine.
type Port struct {
	core *Core
	// id is the node label, or wire.HostID for the host.
	id int
	// rec is the processor's flight recorder, nil when the network has
	// no Flight attached (a nil recorder discards, so hot paths pay one
	// pointer test).
	rec        *forensic.Recorder
	send, recv charge

	clock     Ticks
	commTicks Ticks
	compTicks Ticks
}

// ID returns the node label (wire.HostID for the host).
func (p *Port) ID() int { return p.id }

// Topology returns the hypercube the port belongs to.
func (p *Port) Topology() hypercube.Topology { return p.core.topo }

// Clock returns the processor's current virtual time.
func (p *Port) Clock() Ticks { return p.clock }

// CommTicks returns the virtual time spent on communication.
func (p *Port) CommTicks() Ticks { return p.commTicks }

// CompTicks returns the virtual time spent computing.
func (p *Port) CompTicks() Ticks { return p.compTicks }

// Compute advances the clock by a computation cost; a negative cost
// counts as zero.
func (p *Port) Compute(t Ticks) {
	if t < 0 {
		t = 0
	}
	p.clock += t
	p.compTicks += t
}

// ChargeCompare charges the cost of n key comparisons.
func (p *Port) ChargeCompare(n int) { p.Compute(Ticks(n) * p.core.cost.Compare) }

// ChargeKeyMove charges the cost of moving n keys in local memory.
func (p *Port) ChargeKeyMove(n int) { p.Compute(Ticks(n) * p.core.cost.KeyMove) }

// Partner returns the node across dimension bit. It fails for a bit
// outside the cube and for ports without cube links: spares and the
// host.
func (p *Port) Partner(bit int) (int, error) {
	partner, err := p.core.topo.Partner(p.id, bit)
	if err != nil {
		return 0, p.fail(err)
	}
	return partner, nil
}

// Frame addresses m from this port to label to (wire.HostID for the
// host), stamps its trace trailer when a flight recorder is attached,
// and appends its wire encoding to buf, behind any frame header buf
// already holds; a Body encodes straight into buf, which needs room
// for wire.EncodedSize(m.PayloadLen()) bytes more to take the frame
// without regrowing. The port pays the send cost of the costed bytes (the
// trailer rides free, wire.CostedLen), and the message is counted per
// kind. Frame returns the frame and the tick at which the message
// arrives.
func (p *Port) Frame(buf []byte, to int, m *wire.Message) ([]byte, Ticks, error) {
	m.From, m.To = int32(p.id), int32(to)
	if p.rec != nil {
		m.Trace = p.rec.Send(m.Kind, m.To, m.Stage, m.Iter, int64(p.clock))
	}
	raw, err := wire.AppendMessage(buf, *m)
	if err != nil {
		return nil, 0, p.fail(fmt.Errorf("send: %w", err))
	}
	costed := wire.CostedLen(len(raw) - len(buf))
	cost := p.send.of(costed)
	p.clock += cost
	p.commTicks += cost
	if int(m.Kind) < len(p.core.msgs) {
		p.core.msgs[m.Kind].Add(1)
		p.core.bytes[m.Kind].Add(int64(costed))
	}
	p.core.obsM.RecordMessage(m.Kind, costed)
	return raw, p.clock + p.core.cost.Latency, nil
}

// Accept takes delivery of a frame that arrives at tick arrival. The
// clock first advances to the arrival (idle waiting is charged to
// neither comm nor comp), then the port pays the receive cost, and the
// frame decodes zero-copy: the message's Payload aliases raw. A frame
// that does not parse is a garbled message, paid for all the same.
func (p *Port) Accept(raw []byte, arrival Ticks) (wire.Message, error) {
	if arrival > p.clock {
		p.clock = arrival
	}
	cost := p.recv.of(wire.CostedLen(len(raw)))
	p.clock += cost
	p.commTicks += cost
	m, err := wire.DecodeFrom(raw)
	if err != nil {
		return wire.Message{}, p.fail(fmt.Errorf("garbled message: %w", err))
	}
	if p.rec != nil {
		p.rec.Recv(&m, int64(p.clock))
	}
	return m, nil
}

// fail prefixes err with the network's name and the port's label.
func (p *Port) fail(err error) error {
	if p.id == int(wire.HostID) {
		return fmt.Errorf("%s: host: %w", p.core.name, err)
	}
	return fmt.Errorf("%s: node %d: %w", p.core.name, p.id, err)
}
