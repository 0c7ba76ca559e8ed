// Tenant queues and the weighted-fair dispatcher. Admission is the
// paper's fail-stop philosophy applied to capacity: a job the server
// cannot queue is rejected loudly at the door (ErrOverloaded → HTTP
// 429) rather than accepted and silently starved. Dispatch is smooth
// weighted round-robin across tenants, so a tenant flooding its own
// FIFO cannot push another tenant's jobs out of the schedule.
package server

import (
	"errors"
	"sync"
	"time"

	"repro/internal/core"
)

// ErrOverloaded is returned by Submit when the tenant's queue is at
// its depth bound. Callers should back off and retry; the HTTP layer
// maps it to 429.
var ErrOverloaded = errors.New("server: overloaded, queue full")

// ErrClosed is returned by Submit once the server has begun shutdown.
var ErrClosed = errors.New("server: closed")

// job is one queued sort request with its completion channel.
type job struct {
	id     uint64
	tenant string
	req    Request
	// inject arms the request's fault on each attempt; nil for an
	// honest job.
	inject   func(attempt, dim int, physical []int) []core.Options
	enqueued time.Time
	done     chan jobResult
}

type jobResult struct {
	resp *Response
	err  error
}

// tenantQueue is one tenant's FIFO plus its smooth-WRR state.
type tenantQueue struct {
	name    string
	weight  int
	current int // smooth WRR accumulator
	jobs    []*job
}

// scheduler multiplexes per-tenant FIFOs onto the worker pool with
// smooth weighted round-robin: each pick, every backlogged tenant
// gains its weight, the richest tenant is served and pays the total.
// Over W total weight of picks each tenant with weight w is served w
// times, interleaved as evenly as integer arithmetic allows.
type scheduler struct {
	mu      sync.Mutex
	cond    *sync.Cond
	tenants map[string]*tenantQueue
	weights map[string]int // configured weights; others get 1
	depth   int            // per-tenant queue bound
	queued  int
	closed  bool
}

func newScheduler(depth int, weights map[string]int) *scheduler {
	if depth <= 0 {
		depth = 64
	}
	s := &scheduler{
		tenants: make(map[string]*tenantQueue),
		weights: weights,
		depth:   depth,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// submit enqueues j on its tenant's FIFO, or fails fast.
func (s *scheduler) submit(j *job) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	tq := s.tenants[j.tenant]
	if tq == nil {
		w := s.weights[j.tenant]
		if w <= 0 {
			w = 1
		}
		tq = &tenantQueue{name: j.tenant, weight: w}
		s.tenants[j.tenant] = tq
	}
	if len(tq.jobs) >= s.depth {
		return ErrOverloaded
	}
	tq.jobs = append(tq.jobs, j)
	s.queued++
	s.cond.Signal()
	return nil
}

// next blocks until a job is available and returns it, or returns nil
// once the scheduler is closed and drained. Closing does not abandon
// queued jobs: workers keep draining so every accepted Submit gets an
// answer.
func (s *scheduler) next() *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.queued == 0 {
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
	var pick *tenantQueue
	total := 0
	for _, tq := range s.tenants {
		if len(tq.jobs) == 0 {
			continue
		}
		total += tq.weight
		tq.current += tq.weight
		if pick == nil || tq.current > pick.current ||
			(tq.current == pick.current && tq.name < pick.name) {
			pick = tq
		}
	}
	pick.current -= total
	j := pick.jobs[0]
	pick.jobs = pick.jobs[1:]
	s.queued--
	return j
}

// close stops admission. Queued jobs still run; workers exit when the
// backlog is empty.
func (s *scheduler) close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// depthNow reports the total queued jobs (for gauges and /stats).
func (s *scheduler) depthNow() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queued
}

// tenantDepths snapshots per-tenant backlog for /stats.
func (s *scheduler) tenantDepths() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.tenants))
	for name, tq := range s.tenants {
		out[name] = len(tq.jobs)
	}
	return out
}
