// Package tcpnet implements the transport abstraction over real TCP
// connections (stdlib net): every hypercube link is a loopback TCP
// connection, every message crosses a genuine socket, and a reader
// goroutine per connection feeds per-dimension inboxes.
//
// The virtual-time accounting is shared with internal/simnet: both
// networks embed transport.Core, and their endpoints and host embed
// transport.Port, which charges every send and receive. The
// sender stamps each frame with its arrival tick, so for the same
// protocol and inputs a tcpnet run produces the *same* virtual clocks,
// makespans, and traffic counters as a simnet run (asserted by the
// equivalence tests). This demonstrates that the algorithms and the
// paper's measured quantities are independent of the in-process
// simulation.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Compile-time checks: tcpnet implements the transport abstraction.
var (
	_ transport.Network  = (*Network)(nil)
	_ transport.Endpoint = (*Endpoint)(nil)
	_ transport.Host     = (*Host)(nil)
)

// ErrAbsent mirrors simnet.ErrAbsent: an expected message did not
// arrive within the timeout. It wraps transport.ErrAbsent so callers
// can classify timeouts independently of the network implementation.
var ErrAbsent = fmt.Errorf("tcpnet: expected message absent: %w", transport.ErrAbsent)

// ErrClosed is returned when the network has been shut down.
var ErrClosed = errors.New("tcpnet: network closed")

// inboxDepth bounds each per-dimension inbox; the TCP connection
// itself provides backpressure once an inbox fills.
const inboxDepth = 32

// Config parameterizes a Network.
type Config struct {
	// Dim is the hypercube dimension n; the network has 2^n nodes.
	Dim int
	// Cost is the virtual-time cost model; zero value means
	// transport.DefaultCostModel.
	Cost transport.CostModel
	// RecvTimeout bounds how long a Recv waits in wall-clock time.
	// Zero means 2 seconds.
	RecvTimeout time.Duration
	// Spares is the number of spare nodes pre-registered beyond the
	// cube: physical labels 2^Dim .. 2^Dim+Spares-1 get endpoints and
	// real loopback host connections but no cube links. The sockets
	// are dialed at New — a spare is a part that is already powered
	// and reachable, sitting idle until a recovery remap promotes it
	// into a future attempt's cube. Negative is treated as zero.
	Spares int
	// Obs receives per-kind message and byte counters in addition to
	// the network's own Metrics. Nil means obs.DefaultMetrics().
	Obs *obs.Metrics
	// Flight, when non-nil, attaches causal tracing exactly as in
	// simnet: trace trailers on every frame, send/recv events in
	// per-node flight-recorder rings, trailer bytes excluded from cost
	// and byte metrics (wire.CostedLen).
	Flight *forensic.Flight
}

// packet is a received frame with its virtual arrival time.
type packet struct {
	raw     []byte
	arrival transport.Ticks
}

// Network is one TCP-backed multicomputer instance. Create with New,
// release with Close. A completed run leaves the connections and
// reader goroutines intact, so the mesh is reusable: call Reset
// between runs to drain stale mailboxes, zero the per-run traffic
// counters, and rebind the observability sinks. The transport pool in
// internal/server leans on exactly this to amortize socket setup
// across jobs.
type Network struct {
	transport.Core

	// nodeConns[id][bit] is node id's connection to its partner across
	// dimension bit. nodeHostWrite[id] is node id's side of its host
	// link; hostConns[id] is the host's side.
	nodeConns     [][]net.Conn
	nodeHostWrite []net.Conn
	hostConns     []net.Conn

	// inboxes[id][bit] receives frames from the partner across bit;
	// hostInbox receives node->host frames; nodeHostInbox[id] receives
	// host->node frames.
	inboxes       [][]chan packet
	hostInbox     chan packet
	nodeHostInbox []chan packet

	closeOnce sync.Once
	closed    chan struct{}
	readers   sync.WaitGroup
}

// New constructs the mesh: one loopback TCP connection per hypercube
// edge plus one per node-host pair, with reader goroutines feeding the
// inboxes. On any setup error it closes what it built and returns the
// error.
func New(cfg Config) (_ *Network, err error) {
	nw := &Network{closed: make(chan struct{})}
	if err := nw.Init("tcpnet", cfg.Dim, cfg.Cost, cfg.RecvTimeout, cfg.Spares, cfg.Obs, cfg.Flight); err != nil {
		return nil, err
	}
	topo := nw.Topology()
	n, hosted := topo.Nodes(), topo.Nodes()+nw.Spares()
	nw.nodeConns = make([][]net.Conn, n)
	nw.nodeHostWrite = make([]net.Conn, hosted)
	nw.hostConns = make([]net.Conn, hosted)
	nw.inboxes = make([][]chan packet, n)
	nw.hostInbox = make(chan packet, 4*n+16)
	nw.nodeHostInbox = make([]chan packet, hosted)
	// nw is not a named result, so a return below cannot overwrite it
	// before this deferred Close runs.
	defer func() {
		if err != nil {
			nw.Close()
		}
	}()
	for id := 0; id < n; id++ {
		nw.nodeConns[id] = make([]net.Conn, topo.Dim())
		nw.inboxes[id] = make([]chan packet, topo.Dim())
		for b := 0; b < topo.Dim(); b++ {
			nw.inboxes[id][b] = make(chan packet, inboxDepth)
		}
	}

	// Node-to-node links: one TCP connection per undirected edge.
	for id := 0; id < n; id++ {
		for b := 0; b < topo.Dim(); b++ {
			partner, perr := topo.Partner(id, b)
			if perr != nil {
				return nil, fmt.Errorf("tcpnet: %w", perr)
			}
			if partner < id {
				continue // edge created from the lower endpoint
			}
			c1, c2, cerr := loopbackPair()
			if cerr != nil {
				return nil, fmt.Errorf("tcpnet: edge %d-%d: %w", id, partner, cerr)
			}
			nw.nodeConns[id][b] = c1
			nw.nodeConns[partner][b] = c2
			nw.startReader(c1, nw.inboxes[id][b])
			nw.startReader(c2, nw.inboxes[partner][b])
		}
	}
	// Host links — spares included: a spare's host socket is dialed
	// now, so activating one later is a relabeling, not a connection
	// setup.
	for id := 0; id < hosted; id++ {
		nw.nodeHostInbox[id] = make(chan packet, inboxDepth)
		c1, c2, cerr := loopbackPair()
		if cerr != nil {
			return nil, fmt.Errorf("tcpnet: host link %d: %w", id, cerr)
		}
		// c1 is the node side, c2 the host side.
		nw.nodeHostWrite[id] = c1
		nw.hostConns[id] = c2
		nw.startReader(c1, nw.nodeHostInbox[id])
		nw.startReader(c2, nw.hostInbox)
	}
	return nw, nil
}

// loopbackPair returns two ends of a real TCP connection over the
// loopback interface.
func loopbackPair() (client, server net.Conn, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	type acceptResult struct {
		conn net.Conn
		err  error
	}
	ch := make(chan acceptResult, 1)
	go func() {
		c, aerr := l.Accept()
		ch <- acceptResult{conn: c, err: aerr}
	}()
	client, err = net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, nil, err
	}
	res := <-ch
	if res.err != nil {
		client.Close()
		return nil, nil, res.err
	}
	return client, res.conn, nil
}

// frame layout: u32 payload length | u64 arrival tick | payload.
const frameHeader = 4 + 8

// maxFrame bounds a frame so a corrupted length cannot trigger a huge
// allocation.
const maxFrame = wire.MaxPayload + 64

// startReader pumps frames from the connection into the inbox until
// the connection or network closes.
func (nw *Network) startReader(c net.Conn, inbox chan packet) {
	nw.readers.Add(1)
	go func() {
		defer nw.readers.Done()
		hdr := make([]byte, frameHeader)
		for {
			if _, err := io.ReadFull(c, hdr); err != nil {
				return
			}
			n := binary.LittleEndian.Uint32(hdr)
			if n > maxFrame {
				return
			}
			arrival := transport.Ticks(binary.LittleEndian.Uint64(hdr[4:]))
			raw := make([]byte, n)
			if _, err := io.ReadFull(c, raw); err != nil {
				return
			}
			select {
			case inbox <- packet{raw: raw, arrival: arrival}:
			case <-nw.closed:
				return
			}
		}
	}()
}

// Reset readies a quiescent network for another run: every inbox is
// drained of stale frames, and the core's traffic counters are zeroed
// and its observability sinks rebound (transport.Core.Reset). The TCP
// connections and their reader goroutines are untouched — that is the
// point: a reused mesh skips the whole socket-setup cost of New.
//
// Reset must only be called between runs (no endpoint or host is
// live), and only after a run that terminated cleanly: a run that
// fail-stopped may still have frames crossing sockets, which a drain
// cannot bound. Callers that cannot prove quiescence should Close and
// rebuild instead — internal/server's pool does exactly that for
// fault-stricken networks.
func (nw *Network) Reset(obsM *obs.Metrics, flight *forensic.Flight) error {
	select {
	case <-nw.closed:
		return ErrClosed
	default:
	}
	for _, inboxes := range nw.inboxes {
		for _, inbox := range inboxes {
			drainPackets(inbox)
		}
	}
	for _, inbox := range nw.nodeHostInbox {
		drainPackets(inbox)
	}
	drainPackets(nw.hostInbox)
	nw.Core.Reset(obsM, flight)
	return nil
}

// drainPackets empties an inbox without blocking.
func drainPackets(ch chan packet) {
	for {
		select {
		case <-ch:
		default:
			return
		}
	}
}

// Close shuts the network down: all connections are closed and reader
// goroutines drained. Safe to call multiple times, and on a network
// New left half-built.
func (nw *Network) Close() {
	nw.closeOnce.Do(func() {
		close(nw.closed)
		for _, conns := range nw.nodeConns {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
		}
		for _, c := range nw.hostConns {
			if c != nil {
				c.Close()
			}
		}
		for _, c := range nw.nodeHostWrite {
			if c != nil {
				c.Close()
			}
		}
		nw.readers.Wait()
	})
}

// Endpoint returns node id's endpoint. Call once per node before
// starting its goroutine. Spare labels (beyond the cube, when
// Config.Spares pre-registered them) get endpoints with host links
// only: their Send/Recv across cube dimensions fail until a recovery
// remap promotes the spare into a future attempt's cube.
func (nw *Network) Endpoint(id int) (transport.Endpoint, error) {
	if err := nw.CheckNode(id); err != nil {
		return nil, err
	}
	return &Endpoint{proc{Port: nw.Port(id), net: nw}}, nil
}

// Host returns the host endpoint. Call at most once per network.
func (nw *Network) Host() transport.Host {
	return &Host{proc{Port: nw.Port(int(wire.HostID)), net: nw}}
}
