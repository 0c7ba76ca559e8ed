package tcpnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// proc is what a tcpnet Endpoint and Host share: the port that keeps
// the processor's virtual clock, and the scratch that stages each frame
// for a one-write send. Like the port it is confined to its processor's
// goroutine.
type proc struct {
	transport.Port
	net *Network
	// buf is reused across sends: steady-state sends allocate nothing.
	buf []byte
}

// send frames m at the port for label to and writes the frame to c:
// the header (payload length, arrival tick) and then the message.
func (p *proc) send(c net.Conn, to int, m *wire.Message) error {
	var hdr [frameHeader]byte
	raw, arrival, err := p.Frame(append(p.buf[:0], hdr[:]...), to, m)
	if err != nil {
		return err
	}
	p.buf = raw
	binary.LittleEndian.PutUint32(raw, uint32(len(raw)-frameHeader))
	binary.LittleEndian.PutUint64(raw[4:], uint64(arrival))
	if _, err := c.Write(raw); err != nil {
		return fmt.Errorf("tcpnet: %d -> %d: %w", p.ID(), to, err)
	}
	return nil
}

// await pops the next packet from an inbox, bounded by the configured
// wall-clock timeout and the network lifetime.
func (nw *Network) await(inbox chan packet) (packet, error) {
	timer := time.NewTimer(nw.RecvTimeout())
	defer timer.Stop()
	select {
	case pkt := <-inbox:
		return pkt, nil
	case <-nw.closed:
		return packet{}, ErrClosed
	case <-timer.C:
		return packet{}, ErrAbsent
	}
}

// Endpoint is a node's handle on the TCP mesh. Goroutine-confined,
// like its simnet counterpart; both embed the same transport.Port, so
// the two transports agree on every tick.
type Endpoint struct{ proc }

// Send transmits to the partner across the given dimension bit over
// the link's TCP connection.
func (e *Endpoint) Send(bit int, m wire.Message) error {
	partner, err := e.Partner(bit)
	if err != nil {
		return err
	}
	return e.send(e.net.nodeConns[e.ID()][bit], partner, &m)
}

// Recv blocks for the next message from the partner across the given
// dimension bit, advancing the virtual clock to its arrival. The
// reader goroutine allocated the frame for this message alone, so the
// zero-copy Payload stays valid.
func (e *Endpoint) Recv(bit int) (wire.Message, error) {
	partner, err := e.Partner(bit)
	if err != nil {
		return wire.Message{}, err
	}
	pkt, err := e.net.await(e.net.inboxes[e.ID()][bit])
	if err != nil {
		return wire.Message{}, fmt.Errorf("tcpnet: node %d waiting on link from %d: %w", e.ID(), partner, err)
	}
	return e.Accept(pkt.raw, pkt.arrival)
}

// SendHost transmits to the host over the node's host connection.
func (e *Endpoint) SendHost(m wire.Message) error {
	return e.send(e.net.nodeHostWrite[e.ID()], int(wire.HostID), &m)
}

// RecvHost blocks for the next message from the host.
func (e *Endpoint) RecvHost() (wire.Message, error) {
	pkt, err := e.net.await(e.net.nodeHostInbox[e.ID()])
	if err != nil {
		return wire.Message{}, fmt.Errorf("tcpnet: node %d waiting on host: %w", e.ID(), err)
	}
	return e.Accept(pkt.raw, pkt.arrival)
}

// Host is the reliable host processor's handle on the TCP mesh.
type Host struct{ proc }

// Send transmits from the host to a node over the host interface.
func (h *Host) Send(node int, m wire.Message) error {
	if err := h.net.CheckNode(node); err != nil {
		return err
	}
	return h.send(h.net.hostConns[node], node, &m)
}

// Recv blocks for the next message from any node.
func (h *Host) Recv() (wire.Message, error) {
	pkt, err := h.net.await(h.net.hostInbox)
	if err != nil {
		return wire.Message{}, fmt.Errorf("tcpnet: host: %w", err)
	}
	return h.Accept(pkt.raw, pkt.arrival)
}

// TryRecv returns a pending host message without waiting for the full
// absence timeout.
func (h *Host) TryRecv() (wire.Message, bool, error) {
	select {
	case pkt := <-h.net.hostInbox:
		m, err := h.Accept(pkt.raw, pkt.arrival)
		return m, err == nil, err
	default:
		return wire.Message{}, false, nil
	}
}
