// Package server is sort-as-a-service over the fault-tolerant
// machinery: a long-running multi-tenant process that accepts
// concurrent sort jobs, runs each through reliablesort.Sort with
// AutoRecover and spares on a pre-warmed pooled transport, and returns
// verified results with per-job statistics and forensics.
//
// The paper's contract survives the service boundary intact:
// verification stays end-to-end *per job* — every job's attempt runs
// the full constraint-predicate machinery plus the Theorem 1 oracle on
// its own output, so no job can be silently wrong no matter what
// faults its neighbours on the pool suffered. The service adds the
// operational layers around that contract: admission control (reject
// loudly at the door, never starve silently), weighted-fair tenant
// dispatch, transport pooling with quarantine-on-fault health checks,
// and fleet-wide observability.
package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/recovery"
	"repro/internal/reliablesort"
	"repro/internal/transport"
)

// Request is one sort job.
type Request struct {
	// Tenant names the submitting tenant; empty means "default".
	Tenant string `json:"tenant,omitempty"`
	// Keys is the data to sort. The server never mutates it.
	Keys []int64 `json:"keys"`
	// Descending sorts in non-increasing order.
	Descending bool `json:"descending,omitempty"`
	// Dim forces the cube dimension; 0 chooses automatically.
	Dim int `json:"dim,omitempty"`
	// Inject, when non-nil, injects one fault into the job's attempts.
	// Rejected unless the server was configured with AllowChaos.
	Inject *ChaosSpec `json:"inject,omitempty"`
}

// JobStats is the per-job cost and recovery telemetry returned with a
// verified result.
type JobStats struct {
	// Nodes/BlockLen/Padded are the successful attempt's geometry.
	Nodes    int `json:"nodes"`
	BlockLen int `json:"block_len"`
	Padded   int `json:"padded"`
	// Makespan/Msgs/Bytes are the successful attempt's virtual-time
	// and traffic cost.
	Makespan int64 `json:"makespan_vticks"`
	Msgs     int64 `json:"msgs"`
	Bytes    int64 `json:"bytes"`
	// Attempts is the total sort attempts (1 = clean first try).
	Attempts int `json:"attempts"`
	// Quarantined lists physical nodes dropped or substituted during
	// recovery; Accused lists nodes implicated by Φ evidence.
	Quarantined []int `json:"quarantined,omitempty"`
	Accused     []int `json:"accused,omitempty"`
	// QueueMillis and RunMillis split the job's wall-clock latency
	// into time queued and time sorting.
	QueueMillis int64 `json:"queue_ms"`
	RunMillis   int64 `json:"run_ms"`
}

// Response is a verified sort result.
type Response struct {
	JobID  uint64   `json:"job_id"`
	Tenant string   `json:"tenant"`
	Sorted []int64  `json:"sorted"`
	Stats  JobStats `json:"stats"`
}

// ErrInvalid wraps admission-time validation failures (HTTP 400).
var ErrInvalid = errors.New("server: invalid request")

// Config configures a Server. The zero value serves simnet-backed
// sorts with sensible defaults.
type Config struct {
	// NewNetwork is the transport constructor the pool builds cubes
	// with; nil means internal/simnet.
	NewNetwork func(cfg reliablesort.NetConfig) (transport.Network, error)
	// Concurrency is the worker count — jobs sorting at once; <= 0
	// means 4.
	Concurrency int
	// QueueDepth bounds each tenant's FIFO; beyond it Submit returns
	// ErrOverloaded. <= 0 means 64.
	QueueDepth int
	// Weights sets per-tenant dispatch weights; unlisted tenants get 1.
	Weights map[string]int
	// MaxKeys bounds a single job's input size; <= 0 means 1<<20.
	MaxKeys int
	// MaxDim bounds a job's requested cube dimension; <= 0 means
	// hypercube.MaxDim.
	MaxDim int
	// RecvTimeout bounds absence detection per attempt; 0 means 30s.
	// On simnet it is only the backstop for a partner that is alive but
	// silent (see reliablesort.Options.RecvTimeout).
	RecvTimeout time.Duration
	// DisableRecovery turns AutoRecover off: jobs fail-stop with a
	// *reliablesort.FaultError on the first detected fault.
	DisableRecovery bool
	// MaxAttempts bounds recovery attempts per job; 0 means the
	// supervisor default (4).
	MaxAttempts int
	// Spares is the spare-node pool size per job under recovery.
	Spares int
	// PoolIdle bounds warm networks kept per geometry; <= 0 means 4.
	PoolIdle int
	// AllowChaos accepts Request.Inject (load generators, chaos tests).
	AllowChaos bool
	// Registry receives fleet-wide metrics; nil means a fresh one.
	Registry *obs.Registry
	// JournalCap sizes the fleet job-lifecycle journal; <= 0 default.
	JournalCap int
	// Sleep replaces the recovery backoff sleep (tests); nil is real.
	Sleep func(time.Duration)
}

// Server is a multi-tenant sort service. Construct with New, submit
// with Submit (any number of goroutines), stop with Close.
type Server struct {
	cfg  Config
	reg  *obs.Registry
	obs  *obs.Observer
	pool *Pool
	sch  *scheduler

	jobSeq  atomic.Uint64
	wg      sync.WaitGroup
	closing atomic.Bool

	mSubmitted *obs.Counter
	mRejected  *obs.Counter
	mVerified  *obs.Counter
	mFaulted   *obs.Counter
	mExhausted *obs.Counter
	mInternal  *obs.Counter
	mKeys      *obs.Counter
	mRecovered *obs.Counter
	gQueue     *obs.Gauge
	gInflight  *obs.Gauge
	hQueueMs   *obs.Histogram
	hRunMs     *obs.Histogram
}

// latencyBucketsMs spans a sub-millisecond simnet job to a
// multi-second saturated tcpnet job.
func latencyBucketsMs() []int64 {
	return []int64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
}

// New builds and starts a Server: workers are running and Submit is
// ready when it returns.
func New(cfg Config) *Server {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 4
	}
	if cfg.MaxKeys <= 0 {
		cfg.MaxKeys = 1 << 20
	}
	if cfg.MaxDim <= 0 {
		cfg.MaxDim = hypercube.MaxDim
	}
	if cfg.RecvTimeout == 0 {
		cfg.RecvTimeout = 30 * time.Second
	}
	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:  cfg,
		reg:  reg,
		obs:  obs.New(reg, cfg.JournalCap),
		pool: NewPool(cfg.NewNetwork, cfg.PoolIdle, reg),
		sch:  newScheduler(cfg.QueueDepth, cfg.Weights),
	}
	s.mSubmitted = reg.Counter("server_jobs_submitted_total", "Jobs accepted into a tenant queue.")
	s.mRejected = reg.Counter("server_jobs_rejected_total", "Jobs refused at admission (overload or invalid).")
	s.mVerified = reg.Counter("server_jobs_verified_total", "Jobs completed with a verified result.")
	s.mFaulted = reg.Counter("server_jobs_fault_detected_total", "Jobs fail-stopped on detected faults (recovery disabled).")
	s.mExhausted = reg.Counter("server_jobs_recovery_exhausted_total", "Jobs whose recovery attempt budget ran out.")
	s.mInternal = reg.Counter("server_jobs_internal_error_total", "Jobs failed on transport or internal errors.")
	s.mKeys = reg.Counter("server_keys_sorted_total", "Keys in verified results.")
	s.mRecovered = reg.Counter("server_jobs_recovered_total", "Verified jobs that needed more than one attempt.")
	s.gQueue = reg.Gauge("server_queue_depth", "Jobs queued across all tenants.")
	s.gInflight = reg.Gauge("server_jobs_inflight", "Jobs currently sorting.")
	s.hQueueMs = reg.Histogram("server_job_queue_ms", "Per-job queue wait, milliseconds.", latencyBucketsMs())
	s.hRunMs = reg.Histogram("server_job_run_ms", "Per-job sort time, milliseconds.", latencyBucketsMs())
	for i := 0; i < cfg.Concurrency; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Registry exposes the fleet metrics registry (for /metrics).
func (s *Server) Registry() *obs.Registry { return s.reg }

// Journal exposes the fleet job-lifecycle journal (for /debug/journal).
func (s *Server) Journal() *obs.Journal { return s.obs.J }

// Warm pre-builds count pooled networks of the given dimension so
// early jobs skip transport construction.
func (s *Server) Warm(dim, count int) error {
	return s.pool.Warm(reliablesort.NetConfig{
		Dim: dim, Spares: s.cfg.Spares, RecvTimeout: s.cfg.RecvTimeout,
	}, count)
}

// ServerStats is the /stats summary.
type ServerStats struct {
	Pool      PoolStats      `json:"pool"`
	Queued    int            `json:"queued"`
	Inflight  int64          `json:"inflight"`
	Tenants   map[string]int `json:"tenant_queue_depth"`
	Submitted int64          `json:"jobs_submitted"`
	Verified  int64          `json:"jobs_verified"`
	Faulted   int64          `json:"jobs_fault_detected"`
	Exhausted int64          `json:"jobs_recovery_exhausted"`
	Rejected  int64          `json:"jobs_rejected"`
}

// Stats snapshots the server for /stats.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Pool:      s.pool.Stats(),
		Queued:    s.sch.depthNow(),
		Inflight:  s.gInflight.Value(),
		Tenants:   s.sch.tenantDepths(),
		Submitted: s.mSubmitted.Value(),
		Verified:  s.mVerified.Value(),
		Faulted:   s.mFaulted.Value(),
		Exhausted: s.mExhausted.Value(),
		Rejected:  s.mRejected.Value(),
	}
}

// validate applies admission control before a job consumes any queue
// slot or network.
func (s *Server) validate(req *Request) error {
	if len(req.Keys) == 0 {
		return fmt.Errorf("%w: empty keys", ErrInvalid)
	}
	if len(req.Keys) > s.cfg.MaxKeys {
		return fmt.Errorf("%w: %d keys exceeds limit %d", ErrInvalid, len(req.Keys), s.cfg.MaxKeys)
	}
	if req.Dim < 0 || req.Dim > s.cfg.MaxDim {
		return fmt.Errorf("%w: dim %d outside [0,%d]", ErrInvalid, req.Dim, s.cfg.MaxDim)
	}
	if req.Inject != nil {
		if !s.cfg.AllowChaos {
			return fmt.Errorf("%w: fault injection disabled on this server", ErrInvalid)
		}
		if err := req.Inject.validate(); err != nil {
			return fmt.Errorf("%w: %v", ErrInvalid, err)
		}
	}
	return nil
}

// Submit runs one job through admission, the tenant queue, and a
// worker, blocking until the verified result (or structured error) is
// ready. Safe for any number of concurrent callers.
func (s *Server) Submit(req Request) (*Response, error) {
	if req.Tenant == "" {
		req.Tenant = "default"
	}
	if err := s.validate(&req); err != nil {
		s.mRejected.Inc()
		return nil, err
	}
	j := &job{
		id:       s.jobSeq.Add(1),
		tenant:   req.Tenant,
		req:      req,
		enqueued: time.Now(),
		done:     make(chan jobResult, 1),
	}
	if err := s.sch.submit(j); err != nil {
		s.mRejected.Inc()
		return nil, err
	}
	s.mSubmitted.Inc()
	s.gQueue.Set(int64(s.sch.depthNow()))
	r := <-j.done
	return r.resp, r.err
}

// worker drains the scheduler until close-and-empty.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j := s.sch.next()
		if j == nil {
			return
		}
		s.gQueue.Set(int64(s.sch.depthNow()))
		s.gInflight.Add(1)
		resp, err := s.runJob(j)
		s.gInflight.Add(-1)
		j.done <- jobResult{resp: resp, err: err}
	}
}

// runJob executes one job end to end: per-job observer and flight
// recorder (isolated registries — no cross-job bleed), pooled
// transport, AutoRecover with spares, and result classification.
func (s *Server) runJob(j *job) (*Response, error) {
	started := time.Now()
	queueMs := started.Sub(j.enqueued).Milliseconds()
	s.hQueueMs.Observe(queueMs)
	s.obs.J.Append(obs.Event{
		Kind: obs.EvSpanBegin, Label: "job", Node: int32(j.id % (1 << 31)),
		Stage: -1, Iter: -1, Aux: int64(len(j.req.Keys)),
	})

	// Per-job observability: a fresh registry and flight per job keeps
	// every job's metrics, journal, and forensic reports isolated.
	jobObs := obs.New(obs.NewRegistry(), 0)
	flight := forensic.New(0)

	opts := reliablesort.Options{
		Descending:  j.req.Descending,
		Dim:         j.req.Dim,
		RecvTimeout: s.cfg.RecvTimeout,
		AutoRecover: !s.cfg.DisableRecovery,
		MaxAttempts: s.cfg.MaxAttempts,
		Spares:      s.cfg.Spares,
		Seed:        int64(j.id),
		Sleep:       s.cfg.Sleep,
		Obs:         jobObs,
		Flight:      flight,
		NewNetwork:  s.pool.Get,
	}
	if j.req.Inject != nil {
		opts.Inject = j.req.Inject.injector()
	}

	sorted, st, err := reliablesort.Sort(j.req.Keys, opts)
	runMs := time.Since(started).Milliseconds()
	s.hRunMs.Observe(runMs)
	verified := err == nil
	s.obs.J.Append(obs.Event{
		Kind: obs.EvSpanEnd, Label: "job", Node: int32(j.id % (1 << 31)),
		Stage: -1, Iter: -1, Pass: verified, Aux: runMs,
	})
	if err != nil {
		var fe *reliablesort.FaultError
		var ex *recovery.ExhaustedError
		switch {
		case errors.As(err, &fe):
			s.mFaulted.Inc()
		case errors.As(err, &ex):
			s.mExhausted.Inc()
		default:
			s.mInternal.Inc()
		}
		return nil, err
	}
	s.mVerified.Inc()
	s.mKeys.Add(int64(len(sorted)))
	if st.Attempts > 1 {
		s.mRecovered.Inc()
	}

	stats := JobStats{
		Nodes:       st.Nodes,
		BlockLen:    st.BlockLen,
		Padded:      st.Padded,
		Makespan:    st.Makespan,
		Msgs:        st.Msgs,
		Bytes:       st.Bytes,
		Attempts:    st.Attempts,
		QueueMillis: queueMs,
		RunMillis:   runMs,
	}
	if st.Recovery != nil {
		stats.Quarantined = st.Recovery.Quarantined
	}
	stats.Accused = accusedNodes(jobObs.J)
	return &Response{JobID: j.id, Tenant: j.tenant, Sorted: sorted, Stats: stats}, nil
}

// accusedNodes extracts the distinct accused physical labels from a
// per-job journal, in first-accusation order.
func accusedNodes(j *obs.Journal) []int {
	var out []int
	seen := make(map[int]bool)
	for _, ev := range j.Events() {
		if ev.Kind != obs.EvAccusation {
			continue
		}
		accused := int(ev.Aux)
		if !seen[accused] {
			seen[accused] = true
			out = append(out, accused)
		}
	}
	return out
}

// Close stops admission, waits for queued and in-flight jobs to
// drain, and closes the transport pool. Idempotent.
func (s *Server) Close() {
	if s.closing.Swap(true) {
		return
	}
	s.sch.close()
	s.wg.Wait()
	s.pool.Close()
}
