package main

import (
	"errors"
	"net"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/reliablesort"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// counter names one of the tracer's running totals. Times are in
// nanoseconds.
type counter int

const (
	cFramesRead counter = iota
	cReadNs
	cFramesWritten
	cWriteNs
	cSubmits
	cSubmitNs
	cBuilds
	cBuildNs
	cResets
	cResetNs
	cRuns
	cRunNs
	cSendNs
	cRecvNs
	cComputeNs
	cMsgs
	cWireBytes
	cAbsences
	cAbsenceNs
	cSleeps
	cSleepNs
	numCounters
)

// counts is a snapshot of every counter.
type counts [numCounters]int64

func (c counts) minus(o counts) (d counts) {
	for i := range c {
		d[i] = c[i] - o[i]
	}
	return d
}

// tracer times the calls that cross each layer's public boundary, from
// outside the program: the stream connections the server reads and
// writes, the transport constructor the pool builds with, the networks
// and endpoints a node run uses, and the recovery sleep.
type tracer struct {
	c [numCounters]atomic.Int64
}

func (t *tracer) add(c counter, v int64) { t.c[c].Add(v) }

func (t *tracer) snapshot() (s counts) {
	for i := range s {
		s[i] = t.c[i].Load()
	}
	return s
}

// sleep is the recovery backoff sleep, timed.
func (t *tracer) sleep(d time.Duration) {
	t0 := time.Now()
	time.Sleep(d)
	t.add(cSleeps, 1)
	t.add(cSleepNs, int64(time.Since(t0)))
}

// newNetwork builds a simnet cube exactly as the server's default
// constructor does, timed, and wraps it.
func (t *tracer) newNetwork(cfg reliablesort.NetConfig) (transport.Network, error) {
	t0 := time.Now()
	nw, err := simnet.New(simnet.Config{
		Dim: cfg.Dim, Spares: cfg.Spares, RecvTimeout: cfg.RecvTimeout,
		Obs: cfg.Obs, Flight: cfg.Flight,
	})
	if err != nil {
		return nil, err
	}
	t.add(cBuilds, 1)
	t.add(cBuildNs, int64(time.Since(t0)))
	return &tracedNet{Network: nw, t: t}, nil
}

// tracedNet wraps a pooled network. One node run (an attempt) spans the
// first Endpoint call to the Metrics call; internal/node makes both, and
// every other call in between, from the goroutine running the job.
type tracedNet struct {
	transport.Network
	t *tracer

	runStart time.Time // zero between runs
	spawned  time.Time // first Host call of the run: node goroutines start next
	eps      []*tracedEP
}

func (n *tracedNet) Endpoint(id int) (transport.Endpoint, error) {
	if n.runStart.IsZero() {
		n.runStart = time.Now()
		n.spawned = time.Time{}
		n.eps = n.eps[:0]
	}
	ep, err := n.Network.Endpoint(id)
	if err != nil {
		return nil, err
	}
	te := &tracedEP{Endpoint: ep}
	n.eps = append(n.eps, te)
	return te, nil
}

func (n *tracedNet) Host() transport.Host {
	if !n.runStart.IsZero() && n.spawned.IsZero() {
		n.spawned = time.Now()
	}
	return n.Network.Host()
}

// Metrics ends the run: internal/node calls it after every node
// goroutine has returned, so the endpoints' totals are safe to read.
func (n *tracedNet) Metrics() transport.MetricsSnapshot {
	s := n.Network.Metrics()
	if n.runStart.IsZero() {
		return s
	}
	t := n.t
	t.add(cRuns, 1)
	t.add(cRunNs, int64(time.Since(n.runStart)))
	t.add(cMsgs, s.TotalMsgs())
	t.add(cWireBytes, s.TotalBytes())
	for _, e := range n.eps {
		t.add(cSendNs, e.sendNs)
		t.add(cRecvNs, e.recvNs)
		t.add(cAbsences, e.absences)
		t.add(cAbsenceNs, e.absenceNs)
		if !e.lastOp.IsZero() && !n.spawned.IsZero() {
			t.add(cComputeNs, int64(e.lastOp.Sub(n.spawned))-e.sendNs-e.recvNs)
		}
	}
	n.runStart = time.Time{}
	return s
}

// Reset and Close forward to the wrapped network, so the pool recycles
// and discards wrapped networks exactly as it does bare ones.
func (n *tracedNet) Reset(o *obs.Metrics, f *forensic.Flight) error {
	r, ok := n.Network.(interface {
		Reset(*obs.Metrics, *forensic.Flight) error
	})
	if !ok {
		return errors.New("perfbench: wrapped network cannot reset")
	}
	t0 := time.Now()
	err := r.Reset(o, f)
	n.t.add(cResets, 1)
	n.t.add(cResetNs, int64(time.Since(t0)))
	return err
}

func (n *tracedNet) Close() {
	if c, ok := n.Network.(interface{ Close() }); ok {
		c.Close()
	}
}

// WorkerStart and WorkerDone forward transport.WorkerControl.
func (n *tracedNet) WorkerStart(id int) {
	if wc, ok := n.Network.(transport.WorkerControl); ok {
		wc.WorkerStart(id)
	}
}

func (n *tracedNet) WorkerDone(id int) {
	if wc, ok := n.Network.(transport.WorkerControl); ok {
		wc.WorkerDone(id)
	}
}

// tracedEP times one node's transport calls. Like the endpoint it wraps
// it is confined to the node's goroutine.
type tracedEP struct {
	transport.Endpoint
	sendNs, recvNs      int64
	absences, absenceNs int64
	// lastOp is when the node's last transport or charge call returned:
	// the node program's end, as near as the boundary shows it.
	lastOp time.Time
}

func (e *tracedEP) sent(t0 time.Time) {
	e.lastOp = time.Now()
	e.sendNs += int64(e.lastOp.Sub(t0))
}

func (e *tracedEP) received(t0 time.Time, err error) {
	e.lastOp = time.Now()
	d := int64(e.lastOp.Sub(t0))
	e.recvNs += d
	if errors.Is(err, transport.ErrAbsent) {
		e.absences++
		e.absenceNs += d
	}
}

func (e *tracedEP) Send(bit int, m wire.Message) error {
	t0 := time.Now()
	err := e.Endpoint.Send(bit, m)
	e.sent(t0)
	return err
}

func (e *tracedEP) SendHost(m wire.Message) error {
	t0 := time.Now()
	err := e.Endpoint.SendHost(m)
	e.sent(t0)
	return err
}

func (e *tracedEP) Recv(bit int) (wire.Message, error) {
	t0 := time.Now()
	m, err := e.Endpoint.Recv(bit)
	e.received(t0, err)
	return m, err
}

func (e *tracedEP) RecvHost() (wire.Message, error) {
	t0 := time.Now()
	m, err := e.Endpoint.RecvHost()
	e.received(t0, err)
	return m, err
}

func (e *tracedEP) Compute(t transport.Ticks) {
	e.Endpoint.Compute(t)
	e.lastOp = time.Now()
}

func (e *tracedEP) ChargeCompare(n int) {
	e.Endpoint.ChargeCompare(n)
	e.lastOp = time.Now()
}

func (e *tracedEP) ChargeKeyMove(n int) {
	e.Endpoint.ChargeKeyMove(n)
	e.lastOp = time.Now()
}

// tracedListener wraps each accepted stream connection.
type tracedListener struct {
	net.Listener
	t *tracer
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, t: l.t}, nil
}

// tracedConn splits a server connection's time into request frames,
// submits and response frames. The protocol is lockstep, so a write
// after reads ends a request frame and a read after writes ends a
// response frame. A request frame spans its first to its last read's
// return, which leaves out the wait for the client's next request.
// Only the connection's handler goroutine calls Read and Write.
type tracedConn struct {
	net.Conn
	t *tracer

	reading, writing      bool
	readFirst, readLast   time.Time
	writeFirst, writeLast time.Time
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if c.writing {
		c.writing = false
		c.t.add(cFramesWritten, 1)
		c.t.add(cWriteNs, int64(c.writeLast.Sub(c.writeFirst)))
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := time.Now()
		if !c.reading {
			c.reading = true
			c.readFirst = now
		}
		c.readLast = now
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	if c.reading {
		c.reading = false
		c.t.add(cFramesRead, 1)
		c.t.add(cReadNs, int64(c.readLast.Sub(c.readFirst)))
		c.t.add(cSubmits, 1)
		c.t.add(cSubmitNs, int64(t0.Sub(c.readLast)))
	}
	if !c.writing {
		c.writing = true
		c.writeFirst = t0
	}
	n, err := c.Conn.Write(p)
	c.writeLast = time.Now()
	return n, err
}
