package tcpnet

import (
	"encoding/binary"
	"fmt"
	"net"

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
// the header (payload length, arrival tick) and then the message. Once
// the write returns it counts the frame delivered to box, the mailbox
// the reader at c's far end feeds.
func (p *proc) send(c net.Conn, box *transport.Mailbox, to int, m *wire.Message) error {
	var hdr [frameHeader]byte
	raw, arrival, err := p.Frame(append(p.buf[:0], hdr[:]...), to, m)
	if err != nil {
		return err
	}
	p.buf = raw
	binary.LittleEndian.PutUint32(raw, uint32(len(raw)-frameHeader))
	binary.LittleEndian.PutUint64(raw[4:], uint64(arrival))
	if _, err := c.Write(raw); err != nil {
		p.net.broken.Store(true)
		return fmt.Errorf("tcpnet: %d -> %d: %w", p.ID(), to, err)
	}
	box.Written()
	return nil
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
	return e.send(e.net.nodeConns[e.ID()][bit], e.net.Link(partner, bit), partner, &m)
}

// Recv blocks for the next message from the partner across the given
// dimension bit, advancing the virtual clock to its arrival. It waits
// through the census (transport.Port.Wait), so it returns ErrAbsent
// once the absence rule picks it, and ErrClosed once the network
// closes. The reader goroutine allocated the frame for this message
// alone, so the zero-copy Payload stays valid.
func (e *Endpoint) Recv(bit int) (wire.Message, error) {
	partner, err := e.Partner(bit)
	if err != nil {
		return wire.Message{}, err
	}
	pkt, ok := e.Wait(e.net.Link(e.ID(), bit), false)
	if !ok {
		return wire.Message{}, fmt.Errorf("tcpnet: node %d waiting on link from %d: %w", e.ID(), partner, e.net.absence())
	}
	return e.Accept(pkt.Raw, pkt.Arrival)
}

// SendHost transmits to the host over the node's host connection.
func (e *Endpoint) SendHost(m wire.Message) error {
	return e.send(e.net.nodeHostWrite[e.ID()], e.net.HostIn(), int(wire.HostID), &m)
}

// RecvHost blocks for the next message from the host.
func (e *Endpoint) RecvHost() (wire.Message, error) {
	pkt, ok := e.Wait(e.net.HostOut(e.ID()), false)
	if !ok {
		return wire.Message{}, fmt.Errorf("tcpnet: node %d waiting on host: %w", e.ID(), e.net.absence())
	}
	return e.Accept(pkt.Raw, pkt.Arrival)
}

// Host is the reliable host processor's handle on the TCP mesh.
type Host struct{ proc }

// Send transmits from the host to a node over the host interface.
func (h *Host) Send(node int, m wire.Message) error {
	if err := h.net.CheckNode(node); err != nil {
		return err
	}
	return h.send(h.net.hostConns[node], h.net.HostOut(node), node, &m)
}

// Recv blocks for the next message from any node.
func (h *Host) Recv() (wire.Message, error) {
	pkt, ok := h.Wait(h.net.HostIn(), false)
	if !ok {
		return wire.Message{}, fmt.Errorf("tcpnet: host: %w", h.net.absence())
	}
	return h.Accept(pkt.Raw, pkt.Arrival)
}

// TryRecv returns the next host message without waiting for one that
// no node has written: it waits only while a frame a node has written
// is still in its socket, so a drain after the nodes return takes every
// ERROR signal they sent.
func (h *Host) TryRecv() (wire.Message, bool, error) {
	pkt, ok := h.Wait(h.net.HostIn(), true)
	if !ok {
		return wire.Message{}, false, nil
	}
	m, err := h.Accept(pkt.Raw, pkt.Arrival)
	return m, err == nil, err
}
