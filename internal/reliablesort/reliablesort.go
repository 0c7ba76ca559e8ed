// Package reliablesort is the high-level convenience API over the
// fault-tolerant sorting machinery: it takes an ordinary Go slice,
// chooses a cube size, pads to the power-of-two geometry the bitonic
// algorithms require, distributes the data, runs the fault-tolerant
// block sort, verifies the result against the Theorem 1 oracle, and
// returns a plain sorted slice.
//
// With Options.AutoRecover the call additionally closes the paper's
// detect → act loop: a recovery supervisor (internal/recovery)
// diagnoses every fail-stop, retries transient faults with capped
// exponential backoff, quarantines persistently accused nodes onto the
// next-smaller subcube, and escalates with a structured
// *recovery.ExhaustedError when the attempt budget is spent. In every
// case the contract is unchanged: the caller receives a verified
// result or an error — never an unverified slice.
//
// This is the entry point a downstream user who just wants "a sort
// that can never silently lie" calls; the packages it composes
// (internal/core, internal/simnet, internal/recovery) remain available
// for applications that manage their own distribution.
package reliablesort

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/recovery"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// ErrFaultDetected is returned when the constraint predicate
// fail-stopped the sort. The system delivered no (possibly corrupt)
// result; Diagnose the returned *FaultError for details.
var ErrFaultDetected = errors.New("reliablesort: fault detected, sort fail-stopped")

// FaultError carries the diagnostics of a fail-stopped run.
type FaultError struct {
	// HostErrors are the ERROR signals the host collected.
	HostErrors []core.HostError
	// NodeErr is the first node-level error.
	NodeErr error
}

// Error implements the error interface.
func (e *FaultError) Error() string {
	if len(e.HostErrors) > 0 {
		he := e.HostErrors[0]
		return fmt.Sprintf("reliablesort: fault detected: node %d stage %d: %s predicate: %s",
			he.Node, he.Stage, he.Predicate, he.Detail)
	}
	return fmt.Sprintf("reliablesort: fault detected: %v", e.NodeErr)
}

// Unwrap exposes ErrFaultDetected for errors.Is.
func (e *FaultError) Unwrap() error { return ErrFaultDetected }

// Options configures a Sort call. The zero value sorts ascending on an
// automatically sized cube and fail-stops on the first detected fault.
type Options struct {
	// Descending sorts in non-increasing order.
	Descending bool
	// Dim forces the hypercube dimension; 0 means choose automatically
	// (the smallest cube that keeps blocks reasonably sized, capped at
	// MaxAutoDim).
	Dim int
	// RecvTimeout bounds absence detection; 0 means 30 seconds. On
	// simnet it only bounds waits on a partner that is alive but
	// silent: a node whose program has returned is reported absent at
	// once. tcpnet detects every absence by this timeout.
	RecvTimeout time.Duration

	// AutoRecover turns Sort into a self-healing call: instead of
	// returning a *FaultError on the first detected fail-stop, the
	// recovery supervisor diagnoses the ERROR evidence, retries
	// transient faults with backoff, quarantines persistently accused
	// nodes (re-running degraded on the next-smaller subcube, with the
	// host-held input as the reliable checkpoint), and escalates with
	// a *recovery.ExhaustedError when MaxAttempts is spent.
	AutoRecover bool
	// MaxAttempts bounds the total sort attempts under AutoRecover,
	// quarantined re-runs included; 0 means the supervisor default (4).
	MaxAttempts int
	// Backoff shapes the waits between attempts under AutoRecover; the
	// zero value selects capped exponential backoff with equal jitter
	// (10ms base, 2s cap, 50% jitter).
	Backoff recovery.Backoff
	// MinDim floors the quarantine shrink; 0 means the supervisor
	// default (1).
	MinDim int
	// Spares is the number of spare physical nodes available under
	// AutoRecover: labels 2^dim .. 2^dim+Spares-1 are pre-registered
	// as idle endpoints on every attempt's network, and on a
	// persistent accusation the supervisor substitutes the next spare
	// at the suspect's logical slot instead of shrinking the cube —
	// full capacity is preserved until the pool runs dry, after which
	// quarantine falls back to the subcube shrink.
	Spares int
	// Seed makes the backoff jitter deterministic; 0 uses a fixed
	// default seed.
	Seed int64
	// Sleep replaces time.Sleep between attempts (tests inject a
	// no-op); nil sleeps for real.
	Sleep func(time.Duration)
	// Inject, when non-nil, supplies per-node fault-injection options
	// for each attempt — the hook the chaos tests and demos use to
	// place Byzantine behaviours. physical[l] is the original-cube
	// label of logical node l, so an injector can follow a "physical"
	// fault through quarantine remappings. Production callers leave it
	// nil.
	Inject func(attempt, dim int, physical []int) []core.Options
	// Obs, when non-nil, receives the full event stream of every
	// attempt: stage/round spans, Φ evaluations, merge-compare counts,
	// accusations, and (under AutoRecover) attempt, quarantine,
	// substitution, and backoff events. Message and byte counters flow
	// to the metrics registry backing Obs.M. Recording never charges
	// virtual time, so instrumented runs cost the same ticks as bare
	// ones.
	Obs *obs.Observer
	// Parallelism caps the per-node worker count for the data-parallel
	// merge-split and local-sort paths (threaded through to
	// core.Options.Parallelism on every attempt): <= 0 means
	// GOMAXPROCS. Worker count never changes outputs or virtual-time
	// charges, only wall-clock time.
	Parallelism int
	// Flight, when non-nil, attaches causal flight recording to every
	// attempt: the transport stamps each message with a trace trailer,
	// per-node recorders capture sends/receives/predicate evaluations,
	// and any accusation or supervisor quarantine produces a forensic
	// report (serve them with Flight.Handler, or read Flight.Reports).
	// The trailer is excluded from cost and byte accounting, so traced
	// runs report identical virtual-time results.
	Flight *forensic.Flight

	// NewNetwork overrides the transport constructor used for each
	// attempt; nil means NewSimnet. The returned network must
	// honor the transport contract (including pre-registering
	// cfg.Spares idle endpoints beyond the cube). When the attempt
	// finishes, a network with a Release(clean bool) method is released
	// with clean == (attempt verified) — the seam internal/server's
	// transport pool uses to recycle healthy networks; otherwise a
	// network with a Close method is closed. The chaos harness injects
	// internal/tcpnet here to drive the same recovery path over real
	// sockets.
	NewNetwork func(cfg NetConfig) (transport.Network, error)
}

// NetConfig is what Sort asks of a transport constructor for one
// attempt. Both internal/simnet and internal/tcpnet accept these
// fields verbatim.
type NetConfig struct {
	// Dim is the hypercube dimension for the attempt.
	Dim int
	// Spares is the number of idle spare endpoints to pre-register
	// beyond the cube (labels 2^Dim .. 2^Dim+Spares-1).
	Spares int
	// RecvTimeout bounds absence detection (see Options.RecvTimeout).
	RecvTimeout time.Duration
	// Obs receives the transport's message/byte counters (may be nil).
	Obs *obs.Metrics
	// Flight, when non-nil, makes the transport stamp causal trace
	// trailers and record send/recv events per node.
	Flight *forensic.Flight
}

// MaxAutoDim caps the automatically chosen cube dimension (64 nodes):
// beyond that the goroutine count costs more than the simulated
// parallelism returns.
const MaxAutoDim = 6

// Stats reports what a Sort run cost. With AutoRecover the geometry
// and traffic fields describe the successful attempt; Recovery holds
// the per-attempt history including the cost of wasted attempts.
type Stats struct {
	// Nodes and BlockLen are the chosen geometry (including padding).
	Nodes    int
	BlockLen int
	// Padded is the number of sentinel keys added to fill the geometry.
	Padded int
	// Makespan is the virtual completion time in ticks.
	Makespan int64
	// Msgs and Bytes are the network traffic totals.
	Msgs  int64
	Bytes int64
	// Attempts is how many sort attempts ran (1 without AutoRecover).
	Attempts int
	// Recovery is the supervisor's telemetry when AutoRecover ran:
	// attempt history, suspects, quarantined nodes, backoff waits, and
	// the virtual-time cost of wasted attempts. Nil for single-shot
	// calls and for AutoRecover calls that escalated (the same history
	// then rides the *recovery.ExhaustedError).
	Recovery *recovery.Report
}

// Sort returns a new slice with the elements of keys in the requested
// order, sorted by the fault-tolerant distributed block bitonic sort
// and verified end to end. Without AutoRecover it returns a
// *FaultError (matching ErrFaultDetected) if any constraint predicate
// fired — by Theorem 3 a single Byzantine processor cannot cause a
// silently wrong result. With AutoRecover it instead supervises
// retries and quarantine as described on Options, returning a
// *recovery.ExhaustedError once the attempt budget is spent.
func Sort(keys []int64, opts Options) ([]int64, Stats, error) {
	var stats Stats
	if len(keys) == 0 {
		return []int64{}, stats, nil
	}
	dim := opts.Dim
	if dim == 0 {
		dim = autoDim(len(keys))
	}
	if dim < 0 || dim > hypercube.MaxDim {
		return nil, stats, fmt.Errorf("reliablesort: dimension %d out of range [0,%d]", dim, hypercube.MaxDim)
	}
	timeout := opts.RecvTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}

	// Negate descending inputs so one ascending machine serves both
	// directions; pad with +inf sentinels that land at the top of the
	// ascending order and can be stripped from the tail. Math.MaxInt64
	// inputs are therefore rejected rather than silently confused with
	// sentinels (MinInt64 likewise for descending). base is the
	// host-held reliable checkpoint every recovery attempt restarts
	// from.
	base := make([]int64, 0, len(keys))
	for _, k := range keys {
		if opts.Descending {
			if k == math.MinInt64 {
				return nil, stats, fmt.Errorf("reliablesort: key %d is reserved for padding in descending sorts", k)
			}
			base = append(base, -k)
		} else {
			if k == math.MaxInt64 {
				return nil, stats, fmt.Errorf("reliablesort: key %d is reserved for padding", k)
			}
			base = append(base, k)
		}
	}

	newNet := opts.NewNetwork
	if newNet == nil {
		newNet = NewSimnet
	}

	if !opts.AutoRecover {
		// Single-shot calls honor Inject too (attempt 0, identity
		// physical mapping), so fail-stop-only deployments can still be
		// chaos-tested through the same hook.
		var nodeOpts []core.Options
		if opts.Inject != nil {
			physical := make([]int, 1<<uint(dim))
			for i := range physical {
				physical[i] = i
			}
			nodeOpts = opts.Inject(0, dim, physical)
		}
		flat, at, _, err := runAttempt(base, NetConfig{Dim: dim, RecvTimeout: timeout, Flight: opts.Flight}, newNet, nodeOpts, opts.Obs, opts.Parallelism, opts.Flight)
		stats.fromAttempt(at)
		stats.Attempts = 1
		if err != nil {
			return nil, stats, err
		}
		return finish(flat, len(keys), opts.Descending), stats, nil
	}

	var result []int64
	var okStats attemptStats
	runner := func(p recovery.Plan) recovery.Outcome {
		var nodeOpts []core.Options
		if opts.Inject != nil {
			nodeOpts = opts.Inject(p.Attempt, p.Dim, p.Physical)
		}
		cfg := NetConfig{Dim: p.Dim, Spares: len(p.Spares), RecvTimeout: timeout, Flight: opts.Flight}
		flat, at, hostErrs, err := runAttempt(base, cfg, newNet, nodeOpts, opts.Obs, opts.Parallelism, opts.Flight)
		if err == nil {
			result = flat
			okStats = at
		}
		return recovery.Outcome{HostErrors: hostErrs, Cost: at.makespan, Err: err}
	}
	rep, err := recovery.Supervise(dim, runner, recovery.Policy{
		MaxAttempts:   opts.MaxAttempts,
		Backoff:       opts.Backoff,
		MinDim:        opts.MinDim,
		Spares:        spareLabels(dim, opts.Spares),
		Seed:          opts.Seed,
		Sleep:         opts.Sleep,
		PersistStreak: 2,
		Obs:           opts.Obs,
		Flight:        opts.Flight,
	})
	if err != nil {
		var ex *recovery.ExhaustedError
		if errors.As(err, &ex) {
			stats.Attempts = len(ex.Attempts)
		}
		return nil, stats, fmt.Errorf("reliablesort: %w", err)
	}
	stats.fromAttempt(okStats)
	stats.Attempts = len(rep.Attempts)
	stats.Recovery = rep
	return finish(result, len(keys), opts.Descending), stats, nil
}

// attemptStats is the geometry and cost of one attempt.
type attemptStats struct {
	nodes    int
	blockLen int
	padded   int
	makespan int64
	msgs     int64
	bytes    int64
}

func (s *Stats) fromAttempt(at attemptStats) {
	s.Nodes = at.nodes
	s.BlockLen = at.blockLen
	s.Padded = at.padded
	s.Makespan = at.makespan
	s.Msgs = at.msgs
	s.Bytes = at.bytes
}

// NewSimnet is the default transport constructor (Options.NewNetwork
// nil, and internal/server's pool): a fresh simnet cube with cfg.Spares
// idle spare endpoints beyond it.
func NewSimnet(cfg NetConfig) (transport.Network, error) {
	return simnet.New(simnet.Config{
		Dim:         cfg.Dim,
		Spares:      cfg.Spares,
		RecvTimeout: cfg.RecvTimeout,
		Obs:         cfg.Obs,
		Flight:      cfg.Flight,
	})
}

// spareLabels returns the physical labels of the spare pool: the
// count labels immediately above the initial cube.
func spareLabels(dim, count int) []int {
	if count <= 0 {
		return nil
	}
	n := 1 << uint(dim)
	out := make([]int, count)
	for i := range out {
		out[i] = n + i
	}
	return out
}

// runAttempt executes one fault-tolerant block sort of base (the
// negated-and-unpadded checkpoint) on a fresh cube of the given
// dimension, and post-verifies the output against the Theorem 1
// oracle. It returns the full padded ascending sequence; err is nil
// exactly when that sequence is verified.
func runAttempt(base []int64, cfg NetConfig, newNet func(NetConfig) (transport.Network, error), nodeOpts []core.Options, o *obs.Observer, parallelism int, flight *forensic.Flight) (flatOut []int64, at attemptStats, hostErrs []core.HostError, err error) {
	n := 1 << uint(cfg.Dim)
	m := (len(base) + n - 1) / n
	if m == 0 {
		m = 1
	}
	total := n * m
	at.nodes = n
	at.blockLen = m
	at.padded = total - len(base)

	working := make([]int64, 0, total)
	working = append(working, base...)
	for i := len(working); i < total; i++ {
		working = append(working, math.MaxInt64)
	}

	cfg.Obs = o.Metrics()
	nw, err := newNet(cfg)
	if err != nil {
		return nil, at, nil, fmt.Errorf("reliablesort: %w", err)
	}
	// Lifecycle: a pooled transport (internal/server) implements
	// Release and decides for itself whether to recycle or rebuild —
	// clean is true exactly when the attempt verified, so a
	// fault-stricken network (which may still have frames in flight) is
	// never returned to the pool as healthy. Otherwise, tcpnet (and
	// other socket-backed transports) hold real resources per attempt
	// and are closed here; simnet has no Close and is left to the GC.
	if rel, ok := nw.(interface{ Release(clean bool) }); ok {
		defer func() { rel.Release(err == nil) }()
	} else if c, ok := nw.(interface{ Close() }); ok {
		defer c.Close()
	}
	if o != nil || parallelism > 0 || flight != nil {
		if nodeOpts == nil {
			nodeOpts = make([]core.Options, n)
		}
		for i := range nodeOpts {
			nodeOpts[i].Obs = o
			nodeOpts[i].Parallelism = parallelism
			nodeOpts[i].Forensic = flight.Node(i)
		}
	}
	oc, err := core.RunBlocks(nw, working, m, nodeOpts)
	if err != nil {
		return nil, at, nil, fmt.Errorf("reliablesort: %w", err)
	}
	at.makespan = int64(oc.Result.Makespan())
	at.msgs = oc.Result.Metrics.TotalMsgs()
	at.bytes = oc.Result.Metrics.TotalBytes()
	if oc.Detected() {
		return nil, at, oc.HostErrors, &FaultError{HostErrors: oc.HostErrors, NodeErr: oc.Result.FirstNodeErr()}
	}

	// Belt and braces: the distributed predicates already verified the
	// run; re-verify locally against the Theorem 1 oracle so the
	// library's contract does not rest on a single mechanism.
	if err := checker.Verify(working, oc.Sorted, true); err != nil {
		return nil, at, oc.HostErrors, fmt.Errorf("reliablesort: post-verification: %w", err)
	}
	return oc.Sorted, at, oc.HostErrors, nil
}

// finish strips the padding sentinels from the tail of the verified
// ascending sequence and undoes the descending negation.
func finish(flat []int64, keep int, descending bool) []int64 {
	flat = flat[:keep]
	out := make([]int64, len(flat))
	for i, v := range flat {
		if descending {
			out[i] = -v
		} else {
			out[i] = v
		}
	}
	return out
}

// autoDim picks the smallest dimension whose cube keeps blocks at or
// under 512 keys, capped at MaxAutoDim.
func autoDim(keyCount int) int {
	dim := 0
	for dim < MaxAutoDim && keyCount > (1<<uint(dim))*512 {
		dim++
	}
	if dim < 2 && keyCount >= 4 {
		dim = 2 // a 1- or 2-node "cube" defeats the purpose
	}
	return dim
}

// IsSorted reports whether xs is ordered per the options — a
// convenience for callers asserting on results.
func IsSorted(xs []int64, opts Options) bool {
	for i := 1; i < len(xs); i++ {
		if opts.Descending && xs[i-1] < xs[i] {
			return false
		}
		if !opts.Descending && xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}
