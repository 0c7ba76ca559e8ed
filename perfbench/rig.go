package main

import (
	"fmt"
	"net"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// rig is one in-process server on a loopback stream listener plus the
// benchmark's client connections to it.
type rig struct {
	srv     *server.Server
	ss      *server.StreamServer
	served  chan struct{}
	clients []*server.StreamClient
}

// startRig starts a server with cmd/sortserver's flag defaults (simnet,
// concurrency 4, spares 2, pool idle 4, queue depth 64), chaos admission
// on, tenants alpha=3,beta=1,gamma=1, and the workload's absence
// timeout, then dials conns stream clients. A non-nil tracer wraps the
// listener's connections, the transport constructor and the recovery
// sleep.
func startRig(w workload, conns int, tr *tracer) (*rig, error) {
	cfg := server.Config{
		Concurrency: 4,
		QueueDepth:  64,
		Weights:     map[string]int{"alpha": 3, "beta": 1, "gamma": 1},
		MaxKeys:     1 << 20,
		RecvTimeout: w.recvTimeout,
		Spares:      2,
		PoolIdle:    4,
		AllowChaos:  true,
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if tr != nil {
		cfg.NewNetwork = tr.newNetwork
		cfg.Sleep = tr.sleep
		ln = &tracedListener{Listener: ln, t: tr}
	}
	srv := server.New(cfg)
	r := &rig{srv: srv, ss: srv.NewStreamServer(ln), served: make(chan struct{})}
	go func() {
		defer close(r.served)
		r.ss.Serve()
	}()
	addr := ln.Addr().String()
	for i := 0; i < conns; i++ {
		c, err := server.DialStream(addr)
		if err != nil {
			r.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		r.clients = append(r.clients, c)
	}
	return r, nil
}

// closeStream closes the client connections and the stream server and
// waits until every connection handler has returned.
func (r *rig) closeStream() {
	for _, c := range r.clients {
		c.Close()
	}
	r.clients = nil
	r.ss.Close()
	<-r.served
}

// close stops everything the rig started.
func (r *rig) close() {
	r.closeStream()
	r.srv.Close()
}

// outcome classifies one job's reply.
type outcome uint8

const (
	verified outcome = iota
	faultDetected
	recoveryExhausted
	overloaded
	internalError
	numOutcomes
)

var outcomeNames = [numOutcomes]string{"verified", "fault_detected", "recovery_exhausted", "overloaded", "internal"}

func outcomeOf(class string) outcome {
	for o, name := range outcomeNames {
		if name == class {
			return outcome(o)
		}
	}
	return internalError
}

// det is the part of a phase that repeats exactly for a seed and a
// length, whatever the timing.
type det struct {
	Jobs int `json:"jobs"`
	// Outcomes counts jobs by [honest, injected] and outcome.
	Outcomes [2][numOutcomes]int `json:"outcomes"`
	// HonestVTicks sums the virtual makespans of verified honest jobs.
	HonestVTicks int64 `json:"honest_vticks"`
	// Msgs and Bytes sum the verified attempts' traffic; Attempts sums
	// every job's attempts.
	Msgs          int64 `json:"msgs"`
	Bytes         int64 `json:"wire_bytes"`
	Attempts      int64 `json:"attempts"`
	PoolBuilt     int64 `json:"pool_built"`
	PoolReused    int64 `json:"pool_reused"`
	PoolDiscarded int64 `json:"pool_discarded"`
}

// comparable returns d with the pool's builds folded into its reuses
// when jobs carried faults: after a fault discards a network, which
// checkout finds the idle list empty and builds depends on timing.
// Checkouts (built + reused) and discards still repeat.
func (d det) comparable() det {
	if d.Outcomes[1] != ([numOutcomes]int{}) {
		d.PoolReused += d.PoolBuilt
		d.PoolBuilt = 0
	}
	return d
}

func (d det) verified() int { return d.Outcomes[0][verified] + d.Outcomes[1][verified] }

func (d det) failed() int { return d.Jobs - d.verified() }

func (d *det) merge(o det) {
	d.Jobs += o.Jobs
	for c := range d.Outcomes {
		for k := range d.Outcomes[c] {
			d.Outcomes[c][k] += o.Outcomes[c][k]
		}
	}
	d.HonestVTicks += o.HonestVTicks
	d.Msgs += o.Msgs
	d.Bytes += o.Bytes
	d.Attempts += o.Attempts
}

// geom is the cube a set job was verified on.
type geom struct{ nodes, blockLen int }

// phase is the client's record of one closed-loop run over the job set.
// It keeps no per-job records: its latency slices are allocated before
// the run starts, so the benchmark's own live heap does not grow while
// it measures and cannot change how often the program's GC runs.
type phase struct {
	det  det
	keys int64 // verified keys
	// lat holds the latencies of verified [honest, injected] jobs,
	// sorted once the phase ends.
	lat  [2][]time.Duration
	geom []geom // by set index; zero for jobs never verified
	wall time.Duration
	// steal is the share of the machine's CPU time stolen during the phase.
	steal float64
}

func newPhase(setSize, honestCap, injectedCap int) *phase {
	p := &phase{geom: make([]geom, setSize)}
	p.lat[0] = make([]time.Duration, 0, honestCap)
	p.lat[1] = make([]time.Duration, 0, injectedCap)
	return p
}

// record adds the reply to set job pos to the phase.
func (p *phase) record(pos int, j *job, lat time.Duration, resp *server.Response, eb *server.ErrorBody) {
	class := 0
	if j.inject != nil {
		class = 1
	}
	p.det.Jobs++
	if eb != nil {
		p.det.Outcomes[class][outcomeOf(eb.Error)]++
		p.det.Attempts += int64(eb.Attempts)
		return
	}
	st := resp.Stats
	p.det.Outcomes[class][verified]++
	p.det.Attempts += int64(st.Attempts)
	p.det.Msgs += st.Msgs
	p.det.Bytes += st.Bytes
	if class == 0 {
		p.det.HonestVTicks += st.Makespan
	}
	p.keys += int64(len(j.keys))
	p.lat[class] = append(p.lat[class], lat)
	p.geom[pos] = geom{nodes: st.Nodes, blockLen: st.BlockLen}
}

// merge adds another connection's phase into p.
func (p *phase) merge(o *phase) {
	p.det.merge(o.det)
	p.keys += o.keys
	for c := range p.lat {
		p.lat[c] = append(p.lat[c], o.lat[c]...)
	}
	for i, g := range o.geom {
		if g.nodes != 0 {
			p.geom[i] = g
		}
	}
}

// drive runs a closed loop: each client takes the next job index, sends
// it, waits for the reply and checks it against the reference, until
// more(i, injectedDone) refuses index i. Indices are taken under a lock
// that also makes the stop decision, so the jobs run are exactly
// 0..Jobs-1. expect sizes each connection's latency storage. A silently
// wrong result or a connection error stops every client and is
// returned.
func (r *rig) drive(set []job, expect int, more func(i int, injectedDone int) bool) (*phase, error) {
	var (
		mu       sync.Mutex // guards next, stopped and failErr
		next     int
		stopped  bool
		failErr  error
		injected atomic.Int64
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if failErr == nil {
			failErr = err
		}
		stopped = true
		mu.Unlock()
	}
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if stopped || !more(next, int(injected.Load())) {
			stopped = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	honestCap, injectedCap := expect/len(r.clients)+1, 0
	if slices.ContainsFunc(set, func(j job) bool { return j.inject != nil }) {
		injectedCap = honestCap
	}
	perConn := make([]*phase, len(r.clients))
	for ci := range perConn {
		perConn[ci] = newPhase(len(set), honestCap, injectedCap)
	}
	before := r.srv.Stats().Pool
	steal0, total0 := cpuTimes()
	start := time.Now()
	for ci, c := range r.clients {
		wg.Add(1)
		go func(p *phase, c *server.StreamClient) {
			defer wg.Done()
			for {
				i, ok := take()
				if !ok {
					return
				}
				pos := i % len(set)
				j := &set[pos]
				t0 := time.Now()
				resp, eb, err := c.Do(j.request())
				lat := time.Since(t0)
				if err != nil {
					fail(fmt.Errorf("job %d, %v: connection error: %w", i, j, err))
					return
				}
				if eb == nil && !slices.Equal(resp.Sorted, j.want) {
					fail(fmt.Errorf("job %d, %v: SILENT WRONG result", i, j))
					return
				}
				p.record(pos, j, lat, resp, eb)
				if j.inject != nil {
					injected.Add(1)
				}
			}
		}(perConn[ci], c)
	}
	wg.Wait()
	p := perConn[0]
	p.wall = time.Since(start)
	p.steal = stealShare(steal0, total0)
	after := r.srv.Stats().Pool
	p.det.PoolBuilt = after.Built - before.Built
	p.det.PoolReused = after.Reused - before.Reused
	p.det.PoolDiscarded = after.Discarded - before.Discarded
	for _, o := range perConn[1:] {
		p.merge(o)
	}
	for c := range p.lat {
		slices.Sort(p.lat[c])
	}
	return p, failErr
}

// warmUp runs n jobs cycling over the set's honest jobs, untimed, so
// the heap has grown, and repeats that until the pool holds a network
// per connection: then no honest job of the timed phase builds one.
func (r *rig) warmUp(set []job, n int) error {
	var honest []job
	for _, j := range set {
		if j.inject == nil {
			honest = append(honest, j)
		}
	}
	for round := 1; ; round++ {
		p, err := r.drive(honest, n, func(i, _ int) bool { return i < n })
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		if p.det.failed() > 0 {
			return fmt.Errorf("warm-up: %d of %d honest jobs failed: %v", p.det.failed(), n, p.det.Outcomes[0])
		}
		idle := r.srv.Stats().Pool.Idle
		if idle >= len(r.clients) {
			return nil
		}
		if round == 10 {
			return fmt.Errorf("warm-up: pool holds %d networks for %d connections after %d rounds", idle, len(r.clients), round)
		}
	}
}

// setUp generates the job set and its reference outputs, starts a rig
// and warms it up. It returns the rig and how long all of that took.
func setUp(w workload, seed int64, conns int, tr *tracer) ([]job, *rig, time.Duration, error) {
	t0 := time.Now()
	set := jobSet(w, seed)
	r, err := startRig(w, conns, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := r.warmUp(set, w.warmJobs); err != nil {
		r.close()
		return nil, nil, 0, err
	}
	return set, r, time.Since(t0), nil
}

// connsFor caps the workload's connection count at the CPU count.
func connsFor(w workload) int {
	return min(w.conns, runtime.NumCPU())
}
