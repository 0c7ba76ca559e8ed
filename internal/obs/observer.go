package obs

import (
	"sync"
	"time"

	"repro/internal/wire"
)

// Metrics bundles the pre-registered instruments the protocol layers
// record into. Resolving instruments once at construction keeps record
// sites down to a single atomic add — no name lookups, no maps, no
// allocation.
type Metrics struct {
	// MsgsTotal and BytesTotal count transport traffic by message kind
	// (indexed by wire.Kind, like the transports' own counters).
	MsgsTotal  [8]*Counter
	BytesTotal [8]*Counter

	// PhiPass and PhiFail count constraint-predicate evaluations by
	// predicate (indexed by Phi).
	PhiPass [4]*Counter
	PhiFail [4]*Counter

	// MergeCompares counts key comparisons charged by merge-split and
	// bit_compare work — the block sort's dominant computation.
	MergeCompares *Counter

	// DigestHits and DigestMisses count digest-accelerated predicate
	// checks by result: a hit skipped the element-level scan, a miss
	// fell through to it. DigestSlowScans counts the slow-path scans
	// actually run (one per miss; kept separate so the slow-path rate
	// maps directly onto the paper's §5 overhead accounting).
	DigestHits      *Counter
	DigestMisses    *Counter
	DigestSlowScans *Counter

	// Accusations counts ERROR signals that implicate a specific peer.
	Accusations *Counter

	// JournalDropped counts journal events overwritten by the bounded
	// ring — nonzero means /debug/journal is showing a truncated view.
	JournalDropped *Counter

	// Stages and Rounds count completed bitonic stages and
	// compare-exchange rounds across all nodes.
	Stages *Counter
	Rounds *Counter

	// StageVTicks is the per-node virtual-time cost of completed
	// stages.
	StageVTicks *Histogram

	// RecoveryAttempts..RecoveryBackoffNanos are the supervisor's
	// telemetry: total attempts, retries (attempts after the first),
	// verified completions, quarantines, spare substitutions (the
	// subset of quarantines repaired at full dimension), the virtual
	// time burned by failed attempts (the ROADMAP's recovery-cost
	// series), and wall-clock backoff.
	RecoveryAttempts      *Counter
	RecoveryRetries       *Counter
	RecoveryVerified      *Counter
	RecoveryQuarantines   *Counter
	RecoverySubstitutions *Counter
	RecoveryWastedVTicks  *Counter
	RecoveryBackoffNanos  *Counter

	// CostModelCells, CostModelWithin and CostModelDevPpm track the
	// recovery-aware cost model's predictive quality: validated sweep
	// cells, how many predicted measured expected ticks within the
	// acceptance tolerance, and the absolute relative deviation in
	// parts per million.
	CostModelCells  *Counter
	CostModelWithin *Counter
	CostModelDevPpm *Histogram

	// FaultRuns, FaultDetected and FaultSilent count fault-injection
	// runs by adversary class (indexed by FaultClass): total runs,
	// runs some honest node detected, and runs that finished
	// undetected with a wrong output — the Theorem 3 escapes.
	FaultRuns     [NumFaultClasses]*Counter
	FaultDetected [NumFaultClasses]*Counter
	FaultSilent   [NumFaultClasses]*Counter

	// ExploreBranches..ExploreCounterexamples are the interleaving
	// explorer's telemetry: complete schedule branches executed,
	// branches pruned by canonical state-hash match, scheduling
	// decisions consulted, and invariant-violating branches found.
	ExploreBranches        *Counter
	ExplorePruned          *Counter
	ExploreDecisions       *Counter
	ExploreCounterexamples *Counter
}

// NewMetrics registers the standard instrument set on reg and returns
// the bundle.
func NewMetrics(reg *Registry) *Metrics {
	m := &Metrics{}
	for k := wire.KindExchange; k <= wire.KindError; k++ {
		m.MsgsTotal[k] = reg.Counter("sort_msgs_total",
			"Messages sent, by wire kind.", Label{"kind", k.String()})
		m.BytesTotal[k] = reg.Counter("sort_wire_bytes_total",
			"Wire bytes sent, by message kind.", Label{"kind", k.String()})
	}
	for _, phi := range []Phi{PhiP, PhiF, PhiC} {
		m.PhiPass[phi] = reg.Counter("sort_phi_checks_total",
			"Constraint predicate evaluations, by predicate and verdict.",
			Label{"phi", phi.String()}, Label{"result", "pass"})
		m.PhiFail[phi] = reg.Counter("sort_phi_checks_total",
			"Constraint predicate evaluations, by predicate and verdict.",
			Label{"phi", phi.String()}, Label{"result", "fail"})
	}
	m.MergeCompares = reg.Counter("sort_merge_compares_total",
		"Key comparisons charged by merge-split and bit_compare work.")
	m.DigestHits = reg.Counter("sort_digest_checks_total",
		"Digest-accelerated predicate checks, by result.",
		Label{"result", "hit"})
	m.DigestMisses = reg.Counter("sort_digest_checks_total",
		"Digest-accelerated predicate checks, by result.",
		Label{"result", "miss"})
	m.DigestSlowScans = reg.Counter("sort_digest_slow_scans_total",
		"Element-level slow-path scans run after a digest mismatch.")
	m.Accusations = reg.Counter("sort_accusations_total",
		"ERROR signals implicating a specific peer.")
	m.JournalDropped = reg.Counter("obs_journal_dropped_total",
		"Journal events overwritten by the bounded ring.")
	m.Stages = reg.Counter("sort_stages_total",
		"Completed bitonic stages across all nodes (final verification included).")
	m.Rounds = reg.Counter("sort_rounds_total",
		"Completed compare-exchange (merge-split) rounds across all nodes.")
	m.StageVTicks = reg.Histogram("sort_stage_vticks",
		"Per-node virtual-time cost of completed stages, in ticks.",
		DefaultVTickBuckets())
	m.RecoveryAttempts = reg.Counter("recovery_attempts_total",
		"Sort attempts driven by the recovery supervisor.")
	m.RecoveryRetries = reg.Counter("recovery_retries_total",
		"Recovery attempts after the first (retries and quarantined re-runs).")
	m.RecoveryVerified = reg.Counter("recovery_verified_total",
		"Supervised runs that ended with a verified result.")
	m.RecoveryQuarantines = reg.Counter("recovery_quarantines_total",
		"Nodes quarantined for persistent accusations.")
	m.RecoverySubstitutions = reg.Counter("recovery_substitutions_total",
		"Quarantined nodes replaced by spares at full cube dimension.")
	m.RecoveryWastedVTicks = reg.Counter("recovery_wasted_vticks_total",
		"Virtual time burned by failed attempts (the recovery cost series).")
	m.RecoveryBackoffNanos = reg.Counter("recovery_backoff_nanos_total",
		"Wall-clock nanoseconds spent in between-attempt backoff.")
	m.CostModelCells = reg.Counter("recovery_costmodel_cells_total",
		"Sweep cells validated against the recovery-aware cost model.")
	m.CostModelWithin = reg.Counter("recovery_costmodel_within_tolerance_total",
		"Validated cells whose modeled expected ticks matched measurement within tolerance.")
	m.CostModelDevPpm = reg.Histogram("recovery_costmodel_abs_deviation_ppm",
		"Absolute modeled-vs-measured deviation of expected total vticks, in parts per million.",
		[]int64{1_000, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000})
	for c := FaultClass(0); c < NumFaultClasses; c++ {
		m.FaultRuns[c] = reg.Counter("fault_injection_runs_total",
			"Fault-injection runs, by adversary class.", Label{"class", c.String()})
		m.FaultDetected[c] = reg.Counter("fault_injection_detected_total",
			"Fault-injection runs detected by some honest node, by adversary class.",
			Label{"class", c.String()})
		m.FaultSilent[c] = reg.Counter("fault_injection_silent_wrong_total",
			"Fault-injection runs that finished undetected with a wrong output, by adversary class.",
			Label{"class", c.String()})
	}
	m.ExploreBranches = reg.Counter("explore_branches_total",
		"Complete schedule branches executed by the interleaving explorer.")
	m.ExplorePruned = reg.Counter("explore_pruned_total",
		"Branch prefixes pruned by canonical state-hash match.")
	m.ExploreDecisions = reg.Counter("explore_decisions_total",
		"Scheduling decisions consulted across explored branches.")
	m.ExploreCounterexamples = reg.Counter("explore_counterexamples_total",
		"Invariant-violating branches found by the explorer.")
	return m
}

// RecordMessage counts one sent message of the given kind and encoded
// size. Nil-safe and allocation-free; the transports call this on
// every send.
func (m *Metrics) RecordMessage(kind wire.Kind, bytes int) {
	if m == nil || int(kind) >= len(m.MsgsTotal) {
		return
	}
	m.MsgsTotal[kind].Inc()
	m.BytesTotal[kind].Add(int64(bytes))
}

var (
	defaultMetricsOnce sync.Once
	defaultMetrics     *Metrics
	defaultObsOnce     sync.Once
	defaultObs         *Observer
)

// DefaultMetrics returns the process-wide Metrics bundle, registered
// on DefaultRegistry. The transports record message traffic here when
// no explicit bundle is injected.
func DefaultMetrics() *Metrics {
	defaultMetricsOnce.Do(func() { defaultMetrics = NewMetrics(defaultRegistry) })
	return defaultMetrics
}

// Default returns the process-wide Observer: DefaultMetrics plus a
// DefaultJournalCap journal, on DefaultRegistry. This is what the
// commands' -obs.listen endpoint serves.
func Default() *Observer {
	defaultObsOnce.Do(func() {
		defaultObs = &Observer{M: DefaultMetrics(), J: NewJournal(DefaultJournalCap)}
		defaultObs.J.BindDroppedCounter(defaultObs.M.JournalDropped)
	})
	return defaultObs
}

// StageView is the verified assembled sequence a node holds at the end
// of a stage — the paper's LBS — published on the unified event stream
// for subscribers such as internal/trace. Assembled aliases the
// producer's scratch and is valid only for the duration of the
// callback: subscribers that retain it must copy.
type StageView struct {
	// Node is the reporting node.
	Node int
	// Stage is the completed stage index (the cube dimension for the
	// final verification round).
	Stage int
	// Final marks the final verification round.
	Final bool
	// SubcubeStart and SubcubeSize locate the home subcube the
	// sequence covers.
	SubcubeStart int
	SubcubeSize  int
	// BlockLen is the keys-per-slot width (1 for the scalar sort).
	BlockLen int
	// Assembled is the gathered verified sequence.
	Assembled []int64
	// Causal is the publishing node's most recent flight-recorder event
	// id at publish time (zero when the run is untraced). It joins the
	// stage-view stream — and anything downstream of it, such as
	// cmd/tracesort output — against forensic dump chains.
	Causal wire.EventID
}

// StageSubscriber receives stage views from the unified event stream.
type StageSubscriber interface {
	OnStageView(v StageView)
}

// Observer is the façade protocol code records through: metrics, the
// recovery supervisor's journal, and the stage-view stream. Node
// protocol events only bump counters here; the events themselves are
// recorded once, in each node's flight ring (package forensic). A
// single Observer is shared by every node of a run (its parts are
// concurrency-safe). All methods are nil-receiver safe so
// un-instrumented call sites pay one branch and nothing else.
type Observer struct {
	// M receives counters and histograms; nil disables metrics.
	M *Metrics
	// J receives the supervisor's attempt, backoff, quarantine and
	// substitution events; nil disables the journal.
	J *Journal

	// mu guards subs; subscription happens at setup, publishing on the
	// protocol's stage boundaries (not per-message), so a read lock per
	// stage is cheap.
	mu   sync.RWMutex
	subs []StageSubscriber
}

// New returns an Observer with a fresh Metrics bundle on reg and a
// journal of the given capacity (DefaultJournalCap when <= 0).
func New(reg *Registry, journalCap int) *Observer {
	o := &Observer{M: NewMetrics(reg), J: NewJournal(journalCap)}
	o.J.BindDroppedCounter(o.M.JournalDropped)
	return o
}

// Subscribe registers a stage-view subscriber.
func (o *Observer) Subscribe(s StageSubscriber) {
	if o == nil || s == nil {
		return
	}
	o.mu.Lock()
	o.subs = append(o.subs, s)
	o.mu.Unlock()
}

// PublishStage fans a stage view out to all subscribers.
func (o *Observer) PublishStage(v StageView) {
	if o == nil {
		return
	}
	o.mu.RLock()
	subs := o.subs
	o.mu.RUnlock()
	for _, s := range subs {
		s.OnStageView(v)
	}
}

// Journal returns the observer's journal (nil for a nil observer).
func (o *Observer) Journal() *Journal {
	if o == nil {
		return nil
	}
	return o.J
}

// Metrics returns the observer's metrics bundle (nil for a nil
// observer).
func (o *Observer) Metrics() *Metrics {
	if o == nil {
		return nil
	}
	return o.M
}

// StageEnd counts one completed stage on one node and observes its
// virtual-time cost in the stage histogram.
func (o *Observer) StageEnd(costVT int64) {
	if o == nil || o.M == nil {
		return
	}
	o.M.Stages.Inc()
	o.M.StageVTicks.Observe(costVT)
}

// RoundEnd counts one completed compare-exchange round on one node.
func (o *Observer) RoundEnd() {
	if o == nil || o.M == nil {
		return
	}
	o.M.Rounds.Inc()
}

// PhiCheck counts one evaluation of constraint predicate phi by
// verdict. The evaluation itself, with its step and view digest, is
// the node's flight record.
func (o *Observer) PhiCheck(phi Phi, pass bool) {
	if o == nil || o.M == nil || int(phi) >= len(o.M.PhiPass) {
		return
	}
	if pass {
		o.M.PhiPass[phi].Inc()
	} else {
		o.M.PhiFail[phi].Inc()
	}
}

// Accusation counts one ERROR signal that implicates a peer. The
// accusation itself is the accusing node's flight record.
func (o *Observer) Accusation() {
	if o == nil || o.M == nil {
		return
	}
	o.M.Accusations.Inc()
}

// MergeCompares counts n key comparisons of merge-split/bit_compare
// work.
func (o *Observer) MergeCompares(n int) {
	if o == nil || o.M == nil {
		return
	}
	o.M.MergeCompares.Add(int64(n))
}

// DigestCheck counts one digest-accelerated predicate check by
// result.
func (o *Observer) DigestCheck(hit bool) {
	if o == nil || o.M == nil {
		return
	}
	if hit {
		o.M.DigestHits.Inc()
	} else {
		o.M.DigestMisses.Inc()
	}
}

// DigestSlowScan records one element-level slow-path scan run after a
// digest mismatch.
func (o *Observer) DigestSlowScan() {
	if o == nil || o.M == nil {
		return
	}
	o.M.DigestSlowScans.Inc()
}

// AttemptBegin records the start of recovery attempt attempt on a
// cube of dimension dim.
func (o *Observer) AttemptBegin(attempt, dim int) {
	if o == nil {
		return
	}
	if o.M != nil {
		o.M.RecoveryAttempts.Inc()
		if attempt > 0 {
			o.M.RecoveryRetries.Inc()
		}
	}
	o.J.Append(Event{Kind: EvAttemptBegin, Label: "attempt",
		Node: -1, Stage: int32(attempt), Iter: int32(dim)})
}

// AttemptEnd records the outcome of a recovery attempt: its
// virtual-time cost and whether it produced a verified result. Failed
// attempts accumulate into the wasted-vticks counter.
func (o *Observer) AttemptEnd(attempt, dim int, costVT int64, verified bool) {
	if o == nil {
		return
	}
	if o.M != nil {
		if verified {
			o.M.RecoveryVerified.Inc()
		} else {
			o.M.RecoveryWastedVTicks.Add(costVT)
		}
	}
	o.J.Append(Event{Kind: EvAttemptEnd, Label: "attempt",
		Node: -1, Stage: int32(attempt), Iter: int32(dim),
		Pass: verified, VTicks: costVT, Aux: costVT})
}

// Quarantine records physical node node being dropped after attempt
// attempt.
func (o *Observer) Quarantine(node, attempt int) {
	if o == nil {
		return
	}
	if o.M != nil {
		o.M.RecoveryQuarantines.Inc()
	}
	o.J.Append(Event{Kind: EvQuarantine,
		Node: int32(node), Stage: int32(attempt), Iter: -1})
}

// Substitution records spare taking over the logical slot of the
// quarantined physical node suspect after attempt attempt, preserving
// the full cube dimension. Emitted alongside Quarantine: every
// substitution is a quarantine, but not every quarantine finds a
// spare.
func (o *Observer) Substitution(suspect, spare, attempt int) {
	if o == nil {
		return
	}
	if o.M != nil {
		o.M.RecoverySubstitutions.Inc()
	}
	o.J.Append(Event{Kind: EvSubstitution,
		Node: int32(suspect), Stage: int32(attempt), Iter: -1, Aux: int64(spare)})
}

// CostModelPoint records one modeled-vs-measured validation of the
// recovery-aware cost model: the absolute relative deviation of the
// predicted expected total vticks (as a fraction; recorded in ppm) and
// whether it landed within the acceptance tolerance.
func (o *Observer) CostModelPoint(absRelDev float64, withinTol bool) {
	if o == nil || o.M == nil {
		return
	}
	o.M.CostModelCells.Inc()
	if withinTol {
		o.M.CostModelWithin.Inc()
	}
	o.M.CostModelDevPpm.Observe(int64(absRelDev * 1e6))
}

// Backoff records a between-attempt wait.
func (o *Observer) Backoff(d time.Duration) {
	if o == nil {
		return
	}
	if o.M != nil {
		o.M.RecoveryBackoffNanos.Add(int64(d))
	}
	o.J.Append(Event{Kind: EvBackoff, Node: -1, Stage: -1, Iter: -1, Aux: int64(d)})
}
