// Package transport defines the multicomputer abstraction the
// distributed algorithms are written against: a hypercube of node
// endpoints with point-to-point links, a reliable host, and a
// deterministic virtual clock. Two implementations exist:
//
//   - internal/simnet — in-process, channels as links, with fault
//     injection hooks; the default for tests and experiments.
//   - internal/tcpnet — real TCP connections (stdlib net) between
//     in-process nodes; demonstrates that the protocols and the
//     virtual-time accounting are transport-independent.
//
// Virtual time: every endpoint owns a Ticks clock. Sending charges the
// sender, receiving charges the receiver, and a message arrives
// Latency ticks after its departure, so makespans are reproducible
// regardless of wall-clock scheduling. That rule is written once, in
// Port, which each implementation's endpoints and host embed; each
// network embeds a Core holding the cube, the cost model, the spare
// inventory and the traffic counters. An implementation adds only how
// a frame reaches its queue and how a receive waits, so both produce
// identical virtual-time results for the same protocol run (asserted
// by tcpnet's equivalence table).
package transport

import (
	"errors"

	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/wire"
)

// ErrAbsent is the transport-independent absence sentinel: Recv
// established that an expected message will not arrive, because the
// partner exited without sending it or the receive timeout expired.
// Environmental assumption 4 makes absence detectable, and both network
// implementations wrap this sentinel in their absence errors so
// protocol code can classify the evidence with errors.Is instead of
// parsing error text.
var ErrAbsent = errors.New("transport: expected message absent (timeout)")

// Ticks is a quantity of virtual time.
type Ticks int64

// CostModel assigns virtual-time costs to primitive operations. All
// values are in ticks. The defaults are calibrated so that fitted
// constants for the reproduced experiments have the same term
// structure as the paper's Section 5 table (see internal/costmodel).
type CostModel struct {
	// SendFixed is the per-message software overhead charged to the sender.
	SendFixed Ticks
	// SendPerByte is the per-byte transmission cost charged to the sender.
	SendPerByte Ticks
	// Latency is the wire time between departure and arrival.
	Latency Ticks
	// RecvFixed is the per-message software overhead charged to the receiver.
	RecvFixed Ticks
	// RecvPerByte is the per-byte copy-in cost charged to the receiver.
	RecvPerByte Ticks
	// HostFixed and HostPerByte are the host interface's per-message
	// and per-byte costs, charged to the host for traffic crossing the
	// host channel. On the paper's Ncube the host interface was far
	// slower per byte than inter-node DMA links; this asymmetry is
	// what makes host sorting communication-bound (the 14·N term of
	// the paper's table) while node-to-node piggybacking stays cheap.
	HostFixed   Ticks
	HostPerByte Ticks
	// Compare is the cost of one key comparison.
	Compare Ticks
	// KeyMove is the cost of moving one key in memory.
	KeyMove Ticks
}

// DefaultCostModel returns the cost model used by the experiment
// harness. The ratios mirror the paper's Ncube-class multicomputer:
// per-message software setup dominates node-link cost (millisecond
// messaging software over fast DMA), the host channel is slow per
// byte, and comparisons are cheap relative to either.
func DefaultCostModel() CostModel {
	return CostModel{
		SendFixed:   3000,
		SendPerByte: 1,
		Latency:     1000,
		RecvFixed:   3000,
		RecvPerByte: 1,
		HostFixed:   1000,
		HostPerByte: 50,
		Compare:     25,
		KeyMove:     5,
	}
}

// Endpoint is a node processor's handle on the network. Endpoints are
// goroutine-confined: all methods must be called from the owning
// node's goroutine only.
type Endpoint interface {
	// ID returns the node label in [0, Topology().Nodes()).
	ID() int
	// Topology returns the hypercube the endpoint belongs to.
	Topology() hypercube.Topology

	// Send transmits to the partner across the given dimension bit,
	// charging the sender's clock. A Body is encoded before Send
	// returns, so the sender may then change the state it describes.
	Send(bit int, m wire.Message) error
	// Recv blocks for the next message from the partner across the
	// given dimension bit, advancing the clock to at least the
	// message's arrival. Message absence is an error wrapping
	// ErrAbsent: reported as soon as the network knows the partner has
	// exited without sending (simnet, see WorkerControl), otherwise
	// after the network's receive timeout.
	Recv(bit int) (wire.Message, error)
	// SendHost and RecvHost exchange messages with the reliable host.
	SendHost(m wire.Message) error
	RecvHost() (wire.Message, error)

	// Compute charges local computation time.
	Compute(t Ticks)
	// ChargeCompare charges the cost of n key comparisons.
	ChargeCompare(n int)
	// ChargeKeyMove charges the cost of moving n keys in local memory.
	ChargeKeyMove(n int)

	// Clock returns the node's virtual time; CommTicks and CompTicks
	// split it into communication and computation components (idle
	// waiting belongs to neither).
	Clock() Ticks
	CommTicks() Ticks
	CompTicks() Ticks
}

// Host is the reliable host processor's handle. Like Endpoint it is
// goroutine-confined.
type Host interface {
	// Send transmits to a node over the host interface.
	Send(node int, m wire.Message) error
	// Recv blocks for the next message from any node.
	Recv() (wire.Message, error)
	// TryRecv returns a pending message without waiting for the full
	// absence timeout; ok is false when none is queued.
	TryRecv() (m wire.Message, ok bool, err error)

	Compute(t Ticks)
	ChargeCompare(n int)
	ChargeKeyMove(n int)

	Clock() Ticks
	CommTicks() Ticks
	CompTicks() Ticks
}

// MetricsSnapshot is a point-in-time copy of a network's traffic
// counters, indexed by wire.Kind like the counters themselves.
type MetricsSnapshot struct {
	MsgsByKind  [8]int64
	BytesByKind [8]int64
}

// TotalMsgs returns the message count across all kinds.
func (s MetricsSnapshot) TotalMsgs() int64 {
	var t int64
	for _, v := range s.MsgsByKind {
		t += v
	}
	return t
}

// TotalBytes returns the byte count across all kinds.
func (s MetricsSnapshot) TotalBytes() int64 {
	var t int64
	for _, v := range s.BytesByKind {
		t += v
	}
	return t
}

// Network is a multicomputer instance: it hands out endpoints and the
// host, reports traffic, and takes the lifecycle calls of the harnesses
// that run programs on it. A Network serves one run at a time.
type Network interface {
	Topology() hypercube.Topology
	// Endpoint returns node id's endpoint. Call once per node and run,
	// before starting the node's run.
	Endpoint(id int) (Endpoint, error)
	// Host returns the host endpoint. Call at most once per run.
	Host() Host
	// Metrics snapshots the traffic counters.
	Metrics() MetricsSnapshot
	// WorkerStart and WorkerDone bracket each node and host run.
	WorkerControl
	// Reset readies a quiescent network for another run: it drains what
	// the last run left queued, zeroes the traffic counters and binds
	// the next run's observability sinks (nil for none). A network that
	// cannot be reused says so with an error; internal/server's pool
	// then closes it and builds another.
	Reset(obsM *obs.Metrics, flight *forensic.Flight) error
	// Close releases what the network holds (tcpnet's sockets and their
	// readers). It is safe to call more than once.
	Close()
}

// WorkerControl is the part of a Network that learns which node and
// host goroutines exist and when each one ends. internal/simnet uses it
// in both modes:
//
//   - Under a controlled scheduler, delivery decisions fire only once
//     every live worker has reached a blocking receive, so the network
//     needs the exact worker census.
//   - Free-running, a retired node's links carry an end-of-traffic
//     marker behind its last message, so a partner blocked on it learns
//     of the absence at once instead of after the receive timeout.
//
// Harnesses that run node programs (internal/node) declare every
// worker before its run starts and retire it when the run returns,
// whether the run has a goroutine of its own or a resident one. The
// host worker is declared with id wire.HostID. internal/tcpnet
// implements both calls as no-ops: it detects absence by timeout alone.
type WorkerControl interface {
	// WorkerStart declares that the worker with the given node label
	// (wire.HostID for the host) is about to start executing. It must
	// be called before the worker's run is launched.
	WorkerStart(id int)
	// WorkerDone retires a started worker: it will issue no further
	// transport operations.
	WorkerDone(id int)
}
