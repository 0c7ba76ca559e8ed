// Transport pool: the piece that turns the run-once transports into a
// serve-forever substrate. Building a cube is the expensive part of a
// job — tcpnet dials one real loopback connection per hypercube edge
// plus one per host link — so the pool keeps networks warm and hands
// them to the next job of the same geometry after a Reset (drain
// mailboxes, zero per-run counters, rebind the job's observability
// sinks).
//
// Reuse policy: an attempt Closes its network when it ends, verified
// or fault-stricken alike, and Close puts the network back. Every
// frame a run writes is counted, and the attempt's node programs have
// all returned before it ends, so Reset drains exactly what the run
// left and no stale frame reaches a later tenant's job. The pool
// discards only a network that refuses its Reset (a tcpnet socket
// failed, or a drain outlived the receive watchdog) and a network
// beyond PoolIdle. The built/reused/discarded counters on /metrics
// make the amortization visible: a healthy server shows jobs ≫
// networks built.
//
// Every network the pool builds comes with a crew (crew.go): resident
// node workers that run its jobs' node programs, started with the
// network and stopped when the pool discards it.
package server

import (
	"errors"
	"sync"

	"repro/internal/obs"
	"repro/internal/reliablesort"
	"repro/internal/transport"
)

// poolKey identifies interchangeable networks: same cube geometry,
// same spare pre-registration. RecvTimeout is uniform per pool (it is
// server configuration), so it does not key.
type poolKey struct {
	dim    int
	spares int
}

// Pool is a bounded free-list of pre-warmed transport networks, keyed
// by geometry. Safe for concurrent use.
type Pool struct {
	newNet  func(cfg reliablesort.NetConfig) (transport.Network, error)
	maxIdle int

	mu     sync.Mutex
	idle   map[poolKey][]member
	closed bool

	// built/reused/discarded/idleGauge are fleet-wide metrics (may be
	// nil in bare tests; all instruments are nil-safe).
	built     *obs.Counter
	reused    *obs.Counter
	discarded *obs.Counter
	idleGauge *obs.Gauge
}

// member is a network the pool built, with the crew that runs its
// node programs.
type member struct {
	transport.Network
	*crew
}

// PoolStats is a point-in-time summary for /stats.
type PoolStats struct {
	Built     int64 `json:"built"`
	Reused    int64 `json:"reused"`
	Discarded int64 `json:"discarded"`
	Idle      int   `json:"idle"`
}

// NewPool builds a pool over the given transport constructor (nil
// means reliablesort.NewSimnet) keeping at most maxIdle warm networks
// per geometry (<= 0 means 4).
func NewPool(newNet func(cfg reliablesort.NetConfig) (transport.Network, error), maxIdle int, reg *obs.Registry) *Pool {
	if newNet == nil {
		newNet = reliablesort.NewSimnet
	}
	if maxIdle <= 0 {
		maxIdle = 4
	}
	p := &Pool{
		newNet:  newNet,
		maxIdle: maxIdle,
		idle:    make(map[poolKey][]member),
	}
	if reg != nil {
		p.built = reg.Counter("server_pool_networks_built_total",
			"Transport networks constructed (cache misses and rebuilds).")
		p.reused = reg.Counter("server_pool_networks_reused_total",
			"Jobs served by a recycled pre-warmed transport network.")
		p.discarded = reg.Counter("server_pool_networks_discarded_total",
			"Pooled networks closed (failed Reset, surplus, or idle at pool close).")
		p.idleGauge = reg.Gauge("server_pool_networks_idle",
			"Warm networks currently parked in the pool.")
	}
	return p
}

// Get checks a network for one sort attempt out of the pool: a warm
// network of the right geometry reset onto the job's observability
// sinks when one is parked, a freshly built one otherwise. Closing the
// returned network puts it back.
func (p *Pool) Get(cfg reliablesort.NetConfig) (transport.Network, error) {
	key := poolKey{dim: cfg.Dim, spares: cfg.Spares}
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errors.New("server: pool closed")
		}
		var mb member
		if q := p.idle[key]; len(q) > 0 {
			mb = q[len(q)-1]
			p.idle[key] = q[:len(q)-1]
		}
		p.mu.Unlock()
		if mb.Network == nil {
			break
		}
		p.idleGauge.Add(-1)
		if err := mb.Reset(cfg.Obs, cfg.Flight); err != nil {
			p.discard(mb)
			continue
		}
		p.reused.Inc()
		return &lease{member: mb, pool: p, key: key}, nil
	}
	mb, err := p.build(cfg)
	if err != nil {
		return nil, err
	}
	return &lease{member: mb, pool: p, key: key}, nil
}

// build constructs a network and starts its crew.
func (p *Pool) build(cfg reliablesort.NetConfig) (member, error) {
	nw, err := p.newNet(cfg)
	if err != nil {
		return member{}, err
	}
	p.built.Inc()
	return member{Network: nw, crew: newCrew(nw.Topology().Nodes())}, nil
}

// Warm pre-builds count idle networks for the given geometry so the
// first jobs of a freshly started server skip construction too. The
// networks are built with the pool's default observability (rebound at
// Get time).
func (p *Pool) Warm(cfg reliablesort.NetConfig, count int) error {
	for i := 0; i < count; i++ {
		mb, err := p.build(cfg)
		if err != nil {
			return err
		}
		p.put(mb, poolKey{dim: cfg.Dim, spares: cfg.Spares})
	}
	return nil
}

// put parks a network in the pool, or discards it when the pool is
// closed or already holds PoolIdle networks of its geometry.
func (p *Pool) put(mb member, key poolKey) {
	p.mu.Lock()
	if !p.closed && len(p.idle[key]) < p.maxIdle {
		p.idle[key] = append(p.idle[key], mb)
		p.mu.Unlock()
		p.idleGauge.Add(1)
		return
	}
	p.mu.Unlock()
	p.discard(mb)
}

// discard stops the crew of a network that will not be reused and
// closes the network.
func (p *Pool) discard(mb member) {
	p.discarded.Inc()
	mb.crew.stop()
	mb.Close()
}

// Close empties the pool and closes every idle network. Leased
// networks are closed as their attempts close them.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var all []member
	for k, q := range p.idle {
		all = append(all, q...)
		delete(p.idle, k)
	}
	p.mu.Unlock()
	for _, mb := range all {
		p.idleGauge.Add(-1)
		p.discard(mb)
	}
}

// Stats summarizes the pool for /stats.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	idle := 0
	for _, q := range p.idle {
		idle += len(q)
	}
	p.mu.Unlock()
	return PoolStats{
		Built:     p.built.Value(),
		Reused:    p.reused.Value(),
		Discarded: p.discarded.Value(),
		Idle:      idle,
	}
}

// lease is the per-attempt handle reliablesort runs against. Its Close
// puts the network back into the pool instead of closing it. The
// network's other methods are promoted from the embedded member, so
// node.RunPer's worker census reaches the leased network. Through the
// embedded crew, node.RunPer runs the attempt's node programs on the
// network's resident workers (node.Crew) and core.RunBlocks in their
// kept runners (core.Runners).
type lease struct {
	member
	pool *Pool
	key  poolKey

	once sync.Once
}

// Close returns the underlying network to the pool. Only the first
// call does.
func (l *lease) Close() {
	l.once.Do(func() { l.pool.put(l.member, l.key) })
}
