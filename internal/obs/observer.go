package obs

import "repro/internal/wire"

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
	// checks by result: a hit skipped the element-level scan, and each
	// miss ran one.
	DigestHits   *Counter
	DigestMisses *Counter

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
	// telemetry, which a finished supervision's recovery.Report adds
	// once: total attempts, retries (attempts after the first),
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

// Observer is the façade protocol code records through. Node
// protocol events only bump counters here; the events themselves are
// recorded once, in each node's flight ring (package forensic), and a
// supervision's attempts once, in its recovery.Report. A single
// Observer is shared by every node of a run (its parts are
// concurrency-safe). All methods are nil-receiver safe so
// un-instrumented call sites pay one branch and nothing else.
type Observer struct {
	// M receives counters and histograms; nil disables metrics.
	M *Metrics
	// J is the journal of the service that owns the observer, which
	// appends its job spans there; no protocol or supervisor code
	// writes it.
	J *Journal
}

// New returns an Observer with a fresh Metrics bundle on reg and a
// journal of the given capacity (DefaultJournalCap when <= 0).
func New(reg *Registry, journalCap int) *Observer {
	o := &Observer{M: NewMetrics(reg), J: NewJournal(journalCap)}
	o.J.BindDroppedCounter(o.M.JournalDropped)
	return o
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
