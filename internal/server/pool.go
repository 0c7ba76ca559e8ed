// Transport pool: the piece that turns the run-once transports into a
// serve-forever substrate. Building a cube is the expensive part of a
// job — tcpnet dials one real loopback connection per hypercube edge
// plus one per host link — so the pool keeps verified-healthy networks
// warm and hands them to the next job of the same geometry after a
// Reset (drain mailboxes, zero per-run counters, rebind the job's
// observability sinks).
//
// Health policy: a network is recycled only when the attempt that used
// it finished *verified* (reliablesort releases with clean=true). A
// fault-stricken attempt may leave frames in flight that no drain can
// bound, so its network is quarantined — closed and rebuilt — rather
// than risk a stale frame corrupting a later tenant's job. The
// built/reused/discarded counters on /metrics make the amortization
// visible: a healthy server shows jobs ≫ networks built.
package server

import (
	"errors"
	"sync"

	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/reliablesort"
	"repro/internal/transport"
)

// resettable is the lifecycle seam a pooled transport must implement:
// both internal/simnet and internal/tcpnet do.
type resettable interface {
	Reset(obsM *obs.Metrics, flight *forensic.Flight) error
}

// closable matches transports holding real resources (tcpnet).
type closable interface{ Close() }

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
	idle   map[poolKey][]transport.Network
	closed bool

	// built/reused/discarded/idleGauge are fleet-wide metrics (may be
	// nil in bare tests; all instruments are nil-safe).
	built     *obs.Counter
	reused    *obs.Counter
	discarded *obs.Counter
	idleGauge *obs.Gauge
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
		idle:    make(map[poolKey][]transport.Network),
	}
	if reg != nil {
		p.built = reg.Counter("server_pool_networks_built_total",
			"Transport networks constructed (cache misses and rebuilds).")
		p.reused = reg.Counter("server_pool_networks_reused_total",
			"Jobs served by a recycled pre-warmed transport network.")
		p.discarded = reg.Counter("server_pool_networks_discarded_total",
			"Pooled networks quarantined and closed (fault-stricken or surplus).")
		p.idleGauge = reg.Gauge("server_pool_networks_idle",
			"Warm networks currently parked in the pool.")
	}
	return p
}

// Get checks a network for one sort attempt out of the pool: a warm
// network of the right geometry reset onto the job's observability
// sinks when one is parked, a freshly built one otherwise. The
// returned network implements Release(clean bool) — reliablesort's
// attempt teardown seam — which returns it to the pool (clean) or
// quarantines and closes it (unclean).
func (p *Pool) Get(cfg reliablesort.NetConfig) (transport.Network, error) {
	key := poolKey{dim: cfg.Dim, spares: cfg.Spares}
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, errors.New("server: pool closed")
		}
		var nw transport.Network
		if q := p.idle[key]; len(q) > 0 {
			nw = q[len(q)-1]
			p.idle[key] = q[:len(q)-1]
		}
		p.mu.Unlock()
		if nw == nil {
			break
		}
		p.idleGauge.Add(-1)
		r, ok := nw.(resettable)
		if !ok {
			// Should not happen (put refuses to park these), but never
			// hand out a network we cannot drain.
			p.discard(nw)
			continue
		}
		if err := r.Reset(cfg.Obs, cfg.Flight); err != nil {
			p.discard(nw)
			continue
		}
		p.reused.Inc()
		return &lease{Network: nw, pool: p, key: key}, nil
	}
	nw, err := p.newNet(cfg)
	if err != nil {
		return nil, err
	}
	p.built.Inc()
	return &lease{Network: nw, pool: p, key: key}, nil
}

// Warm pre-builds count idle networks for the given geometry so the
// first jobs of a freshly started server skip construction too. The
// networks are built with the pool's default observability (rebound at
// Get time).
func (p *Pool) Warm(cfg reliablesort.NetConfig, count int) error {
	for i := 0; i < count; i++ {
		nw, err := p.newNet(cfg)
		if err != nil {
			return err
		}
		p.built.Inc()
		p.put(nw, poolKey{dim: cfg.Dim, spares: cfg.Spares}, true)
	}
	return nil
}

// put returns a network to the pool (healthy) or quarantines it.
func (p *Pool) put(nw transport.Network, key poolKey, healthy bool) {
	if _, ok := nw.(resettable); !ok {
		healthy = false
	}
	if healthy {
		p.mu.Lock()
		if !p.closed && len(p.idle[key]) < p.maxIdle {
			p.idle[key] = append(p.idle[key], nw)
			p.mu.Unlock()
			p.idleGauge.Add(1)
			return
		}
		p.mu.Unlock()
	}
	p.discard(nw)
}

// discard closes a network that will not be reused.
func (p *Pool) discard(nw transport.Network) {
	p.discarded.Inc()
	if c, ok := nw.(closable); ok {
		c.Close()
	}
}

// Close empties the pool and closes every idle network. Leased
// networks are closed as they are released.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var all []transport.Network
	for k, q := range p.idle {
		all = append(all, q...)
		delete(p.idle, k)
	}
	p.mu.Unlock()
	for _, nw := range all {
		p.idleGauge.Add(-1)
		p.discard(nw)
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

// lease is the per-attempt handle reliablesort runs against. Its
// Release implements the attempt-teardown seam: healthy networks go
// back into the pool, fault-stricken ones are quarantined and closed.
type lease struct {
	transport.Network
	pool *Pool
	key  poolKey

	once sync.Once
}

// Release returns the underlying network to the pool. clean must be
// true only if the attempt that used it finished verified.
func (l *lease) Release(clean bool) {
	l.once.Do(func() { l.pool.put(l.Network, l.key, clean) })
}

// WorkerStart and WorkerDone forward transport.WorkerControl, so
// node.RunPer reaches the leased network through the lease: on simnet
// that is what turns a finished node's silence into immediate absence
// instead of a wait for the receive timeout.
func (l *lease) WorkerStart(id int) {
	if wc, ok := l.Network.(transport.WorkerControl); ok {
		wc.WorkerStart(id)
	}
}

func (l *lease) WorkerDone(id int) {
	if wc, ok := l.Network.(transport.WorkerControl); ok {
		wc.WorkerDone(id)
	}
}
