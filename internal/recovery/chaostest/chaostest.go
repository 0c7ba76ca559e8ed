// Package chaostest is the randomized chaos/property harness for the
// recovery supervisor: it generates seeded scenarios over (fault
// strategy × fault site × transient/persistent × spare-pool size ×
// cube dimension), supervises each to completion over a chosen
// transport, and checks the recovery invariants the paper's
// application-oriented fault-tolerance argument rests on:
//
//   - the caller receives a verified sorted permutation of its input
//     or a structured *recovery.ExhaustedError — never an unverified
//     slice;
//   - the full cube dimension is preserved while the spare pool
//     lasts: a quarantine substitutes a spare at the suspect's slot,
//     and the subcube shrink happens only after pool exhaustion;
//   - the supervisor's Report bookkeeping is self-consistent: every
//     attempt is accounted exactly once, wasted virtual time is the
//     sum of the failed attempts' costs, and the virtual-time
//     accounting is monotone;
//   - transient faults are repaired by retry alone (no quarantine),
//     and persistent faults are localized to the injected site.
//
// Scenarios are deterministic functions of their seed, so any failure
// is reproducible from the one-line description the tests emit (and
// write to CHAOS_ARTIFACT_DIR when set, for CI artifact upload).
package chaostest

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/recovery"
	"repro/internal/reliablesort"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// Transport selects the network implementation a scenario runs over.
type Transport int

const (
	// Simnet runs the scenario over the in-process simulator.
	Simnet Transport = iota
	// TCP runs the scenario over real loopback sockets
	// (internal/tcpnet), including spare pre-registration.
	TCP
)

// String returns the transport's name.
func (tr Transport) String() string {
	if tr == TCP {
		return "tcpnet"
	}
	return "simnet"
}

// Scenario is one randomized supervision: an adversary at a physical
// fault site, transient or persistent, with a spare pool, on a cube of
// the given dimension. The adversary is drawn from the full taxonomy
// (DESIGN.md §7): a Byzantine message strategy, a lying comparator, or
// corrupting memory cells.
type Scenario struct {
	// Seed derives the workload and the supervisor's jitter stream.
	Seed int64
	// Dim is the cube dimension (≥ 2 so ActivateStage 1 exists).
	Dim int
	// BlockLen scales the per-node workload; the key count is chosen
	// so padding is sometimes exercised.
	BlockLen int
	// Class is the adversary class. The zero value and ClassMessage /
	// ClassAbsence inject Strategy; ClassComparison injects a CmpMode
	// comparator and ClassMemory a MemMode corruptor, both at Rate.
	Class fault.Class
	// Strategy is the injected Byzantine behaviour for the message
	// and absence classes.
	Strategy fault.Strategy
	// CmpMode is the lying-comparator discipline (ClassComparison).
	CmpMode fault.CmpMode
	// MemMode is the memory-corruption discipline (ClassMemory).
	MemMode fault.MemMode
	// Rate is the comparison-lie / memory-corruption rate.
	Rate float64
	// Site is the physical label of the fault site, in [0, 2^Dim).
	Site int
	// Persistent makes the fault manifest on every attempt for as
	// long as the site is mapped into the cube; otherwise it fires on
	// attempt 0 only.
	Persistent bool
	// Spares is the spare-pool size handed to the supervisor.
	Spares int
	// MaxAttempts is the supervisor's attempt budget.
	MaxAttempts int
	// Pad is how many keys short of a full 2^Dim × BlockLen geometry
	// the workload runs, exercising the sentinel padding path.
	Pad int
}

// Name returns a stable reproducer label for test output and artifact
// files.
func (sc Scenario) Name() string {
	kind := "transient"
	if sc.Persistent {
		kind = "persistent"
	}
	return fmt.Sprintf("seed%d/d%d/m%d/%s/site%d/%s/spares%d", sc.Seed, sc.Dim, sc.BlockLen,
		sc.faultLabel(), sc.Site, kind, sc.Spares)
}

// faultLabel names the scenario's adversary: the message strategy, or
// the comparison/memory mode with its rate.
func (sc Scenario) faultLabel() string {
	switch sc.Class {
	case fault.ClassComparison:
		return fmt.Sprintf("%v@%.2g", sc.CmpMode, sc.Rate)
	case fault.ClassMemory:
		return fmt.Sprintf("%v@%.2g", sc.MemMode, sc.Rate)
	default:
		return sc.Strategy.String()
	}
}

// Generate derives n deterministic scenarios from seed. The same
// (seed, n) always yields the same table, so a failing scenario can be
// re-run by name.
func Generate(seed int64, n int) []Scenario {
	rng := rand.New(rand.NewSource(seed))
	sts := fault.AllStrategies()
	cms := fault.AllCmpModes()
	mms := fault.AllMemModes()
	out := make([]Scenario, n)
	for i := range out {
		dim := 2 + rng.Intn(2) // 2 or 3: ActivateStage 1 must exist
		blockLen := 1 + rng.Intn(3)
		out[i] = Scenario{
			Seed:        rng.Int63(),
			Dim:         dim,
			BlockLen:    blockLen,
			Site:        rng.Intn(1 << uint(dim)),
			Persistent:  rng.Intn(2) == 1,
			Spares:      rng.Intn(3),
			MaxAttempts: 5 + rng.Intn(2),
			Pad:         rng.Intn(blockLen),
		}
		// Draw the adversary uniformly over the whole taxonomy: every
		// message strategy, comparison mode, and memory mode. Rate 1
		// keeps comparison/memory faults deterministic enough that a
		// persistent fault manifests on every attempt.
		pick := rng.Intn(len(sts) + len(cms) + len(mms))
		switch {
		case pick < len(sts):
			out[i].Strategy = sts[pick]
			out[i].Class = out[i].Strategy.Class()
		case pick < len(sts)+len(cms):
			out[i].Class = fault.ClassComparison
			out[i].CmpMode = cms[pick-len(sts)]
			out[i].Rate = 1
		default:
			out[i].Class = fault.ClassMemory
			out[i].MemMode = mms[pick-len(sts)-len(cms)]
			out[i].Rate = 1
		}
	}
	return out
}

// Workload returns the scenario's deterministic key slice.
func Workload(sc Scenario) []int64 {
	rng := rand.New(rand.NewSource(sc.Seed))
	n := (1<<uint(sc.Dim))*sc.BlockLen - sc.Pad
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(4000) - 2000
	}
	return keys
}

// lieValue is what lying strategies substitute and stuck memory reads.
const lieValue = 7777

// messageFault is the Byzantine message strategy st at node.
func messageFault(st fault.Strategy, node int) fault.Case {
	return fault.Case{Msg: &fault.Spec{Node: node, Strategy: st, ActivateStage: 1, LieValue: lieValue}}
}

// ScenarioInjector builds the scenario's per-attempt injection across
// the whole adversary taxonomy: a Byzantine message strategy, or a
// comparison or memory fault seeded from the scenario. The fault
// follows the physical site through quarantine remaps exactly as an
// operator-visible hardware fault would (fault.Follow).
func ScenarioInjector(sc Scenario) func(attempt, dim int, physical []int) []core.Options {
	c := messageFault(sc.Strategy, sc.Site)
	switch sc.Class {
	case fault.ClassComparison:
		c = fault.Case{Cmp: &fault.CmpSpec{Node: sc.Site, Mode: sc.CmpMode,
			Rate: sc.Rate, Seed: sc.Seed ^ 0x5eed, ActivateStage: 1}}
	case fault.ClassMemory:
		c = fault.Case{Mem: &fault.MemSpec{Node: sc.Site, Mode: sc.MemMode,
			Rate: sc.Rate, Seed: sc.Seed ^ 0x5eed, ActivateStage: 1, StuckValue: lieValue}}
	}
	return fault.Follow(fault.Set{c}, sc.Persistent)
}

// RateConfig parameterizes a RateInjector: a memoryless fault-arrival
// process in the MTTF framing of the recovery-aware cost model
// (internal/costmodel.FaultRegime), rather than the single scripted
// fault of a Scenario.
type RateConfig struct {
	// MTTF is the per-node mean virtual time between fault arrivals,
	// in vticks. The probability that some fault arrives during an
	// attempt of T ticks on n nodes is 1 − exp(−n·T/MTTF).
	MTTF float64
	// Baselines maps cube dimension → fault-free attempt vticks for
	// the workload under test; the injector prices each attempt's
	// exposure window with the same numbers the cost model uses, so
	// measured and modeled arrival rates agree exactly.
	Baselines map[int]float64
	// PersistentFrac is the probability an arrival is persistent: it
	// re-manifests at its site every attempt until the site is
	// quarantined out of the cube.
	PersistentFrac float64
	// Strategies is the Byzantine behaviour pool, drawn uniformly per
	// arrival. Calibration sweeps restrict it to strongly attributed
	// strategies so the supervisor's suspect ranking names the
	// injected site.
	Strategies []fault.Strategy
	// Seed drives the injector's private arrival/site/strategy stream.
	Seed int64
}

// RateInjector drives a rate-based fault process through
// reliablesort.Options.Inject. It is stateful: a persistent arrival
// follows its physical site through remaps until quarantined, and at
// most one fault is active at a time (the single-fault regime of the
// paper's Theorem 3, which both the detection guarantee and the cost
// model's recursion assume).
type RateInjector struct {
	cfg RateConfig
	rng *rand.Rand

	// active injects the live persistent fault at activeSite; nil
	// means none.
	active     func(attempt, dim int, physical []int) []core.Options
	activeSite int
	// lastSite is the most recently manifested site. New arrivals
	// avoid it so a transient episode and an unrelated follow-up at
	// the same site cannot masquerade as a persistent streak — real
	// independent arrivals on distinct parts, which is also exactly
	// what the cost model's state machine prices.
	lastSite int

	// Manifestations counts attempts in which a fault was active —
	// the denominator of the measured detection fraction.
	Manifestations int64
	// Arrivals counts fresh fault arrivals (first manifestations).
	Arrivals int64
}

// NewRateInjector returns a rate injector for one supervision. Each
// supervised run needs its own injector (state follows the attempt
// sequence).
func NewRateInjector(cfg RateConfig) *RateInjector {
	return &RateInjector{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		lastSite: -1,
	}
}

// Inject implements reliablesort.Options.Inject for the rate process.
func (ri *RateInjector) Inject(attempt, dim int, physical []int) []core.Options {
	// A live persistent fault re-manifests while its site is mapped;
	// once quarantine removed the site, the episode is over.
	if ri.active != nil {
		if opts := ri.active(attempt, dim, physical); opts != nil {
			ri.Manifestations++
			ri.lastSite = ri.activeSite
			return opts
		}
		ri.active = nil
	}
	t, ok := ri.cfg.Baselines[dim]
	if !ok || ri.cfg.MTTF <= 0 || len(ri.cfg.Strategies) == 0 {
		return nil
	}
	p := 1 - math.Exp(-float64(int64(1)<<uint(dim))*t/ri.cfg.MTTF)
	if ri.rng.Float64() >= p {
		return nil
	}
	// Fresh arrival: uniform over mapped sites, avoiding the most
	// recently manifested one.
	site := ri.pickSite(physical)
	if site < 0 {
		return nil
	}
	st := ri.cfg.Strategies[ri.rng.Intn(len(ri.cfg.Strategies))]
	inject := fault.Follow(fault.Set{messageFault(st, site)}, true)
	if ri.rng.Float64() < ri.cfg.PersistentFrac {
		ri.active, ri.activeSite = inject, site
	}
	ri.Arrivals++
	ri.Manifestations++
	ri.lastSite = site
	return inject(attempt, dim, physical)
}

func (ri *RateInjector) pickSite(physical []int) int {
	candidates := make([]int, 0, len(physical))
	for _, ph := range physical {
		if ph != ri.lastSite {
			candidates = append(candidates, ph)
		}
	}
	if len(candidates) == 0 {
		candidates = physical
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[ri.rng.Intn(len(candidates))]
}

// Result is everything one supervised scenario produced.
type Result struct {
	In    []int64
	Out   []int64
	Stats reliablesort.Stats
	Err   error
	// Obs is the run's private observer; its recovery counters are
	// cross-checked against the supervisor's Report by Check.
	Obs *obs.Observer
	// Flight is the run's causal flight recorder; its forensic dumps
	// are written next to the failure reproducers on invariant
	// violations.
	Flight *forensic.Flight
}

// RecvTimeout returns the absence-detection timeout used for the
// transport: long enough that honest partners are never misdiagnosed,
// short enough that silence strategies don't dominate wall time.
func RecvTimeout(tr Transport) time.Duration {
	if tr == TCP {
		return 400 * time.Millisecond
	}
	return 80 * time.Millisecond
}

// TCPNetwork is the reliablesort transport constructor for tcpnet,
// spares pre-registered as real idle loopback connections.
func TCPNetwork(cfg reliablesort.NetConfig) (transport.Network, error) {
	return tcpnet.New(tcpnet.Config{
		Dim:         cfg.Dim,
		Spares:      cfg.Spares,
		RecvTimeout: cfg.RecvTimeout,
		Obs:         cfg.Obs,
		Flight:      cfg.Flight,
	})
}

// Run supervises the scenario to completion over the transport. Every
// run gets a private observer so the supervisor's telemetry counters
// can be cross-checked against its Report without interference from
// concurrent scenarios.
func Run(sc Scenario, tr Transport) Result {
	keys := Workload(sc)
	o := obs.New(obs.NewRegistry(), 256)
	flight := forensic.New(0)
	opts := reliablesort.Options{
		Dim:         sc.Dim,
		RecvTimeout: RecvTimeout(tr),
		AutoRecover: true,
		MaxAttempts: sc.MaxAttempts,
		Spares:      sc.Spares,
		Sleep:       func(time.Duration) {},
		Seed:        sc.Seed | 1,
		Inject:      ScenarioInjector(sc),
		Obs:         o,
		Flight:      flight,
	}
	if tr == TCP {
		opts.NewNetwork = TCPNetwork
	}
	out, stats, err := reliablesort.Sort(keys, opts)
	return Result{In: keys, Out: out, Stats: stats, Err: err, Obs: o, Flight: flight}
}

// Check runs the full invariant battery against a scenario's result.
// It returns nil when every invariant holds.
func Check(sc Scenario, r Result) error {
	if r.Err != nil {
		// The only acceptable failure is a structured escalation
		// carrying the complete, self-consistent attempt history.
		var ex *recovery.ExhaustedError
		if !errors.As(r.Err, &ex) {
			return fmt.Errorf("unstructured error: %w", r.Err)
		}
		if len(ex.Attempts) != sc.MaxAttempts {
			return fmt.Errorf("ExhaustedError with %d attempts, budget was %d", len(ex.Attempts), sc.MaxAttempts)
		}
		rep := &recovery.Report{
			Attempts:      ex.Attempts,
			FinalDim:      ex.Attempts[len(ex.Attempts)-1].Dim,
			Quarantined:   ex.Quarantined,
			Substitutions: ex.Substitutions,
		}
		for _, a := range ex.Attempts {
			rep.WastedCost += a.Cost
			rep.TotalBackoff += a.Backoff
		}
		if err := VerifyReport(rep, r.Obs.Metrics()); err != nil {
			return err
		}
		return checkAttemptHistory(sc, rep)
	}

	if err := checkSorted(r.In, r.Out); err != nil {
		return err
	}
	rep := r.Stats.Recovery
	if rep == nil {
		return errors.New("AutoRecover success without recovery report")
	}
	if err := VerifyReport(rep, r.Obs.Metrics()); err != nil {
		return err
	}
	if err := checkAttemptHistory(sc, rep); err != nil {
		return err
	}

	quarantined := rep.Quarantined
	if !sc.Persistent {
		// A transient fault must be repaired by retry alone.
		if len(quarantined) != 0 {
			return fmt.Errorf("transient fault quarantined %v", quarantined)
		}
		if r.Stats.Attempts > 2 {
			return fmt.Errorf("transient fault took %d attempts", r.Stats.Attempts)
		}
		return nil
	}
	// Persistent fault, recovered: it must have been localized to the
	// injected site — except for the memory class, where corrupted
	// cells travel through honest nodes as legitimate-looking keys
	// before a predicate fires, so the first quarantine may name a
	// downstream victim. Detection (the run ended verified or
	// escalated, never silently wrong) is guaranteed for every class;
	// localization is only best-effort for memory faults.
	if len(quarantined) > 0 && quarantined[0] != sc.Site && sc.Class != fault.ClassMemory {
		return fmt.Errorf("first quarantine hit %d, fault site was %d", quarantined[0], sc.Site)
	}
	// …and while quarantines fit the spare pool, repaired at full
	// dimension (a mislocalized memory fault can quarantine twice and
	// legitimately outrun the pool).
	if sc.Spares >= 1 && len(quarantined) > 0 && len(quarantined) <= sc.Spares {
		if rep.FinalDim != sc.Dim {
			return fmt.Errorf("spares available but FinalDim = %d (started %d)", rep.FinalDim, sc.Dim)
		}
		if len(rep.Substitutions) == 0 {
			return errors.New("spares available but quarantine recorded no substitution")
		}
		if r.Stats.Nodes != 1<<uint(sc.Dim) {
			return fmt.Errorf("degraded geometry %d nodes despite spare substitution", r.Stats.Nodes)
		}
	}
	if sc.Spares == 0 && len(rep.Substitutions) != 0 {
		return fmt.Errorf("empty pool produced substitutions %v", rep.Substitutions)
	}
	return nil
}

// checkSorted asserts out is an ascending permutation of in.
func checkSorted(in, out []int64) error {
	if len(out) != len(in) {
		return fmt.Errorf("result length %d, want %d", len(out), len(in))
	}
	counts := make(map[int64]int, len(in))
	for _, k := range in {
		counts[k]++
	}
	for i, k := range out {
		if i > 0 && out[i-1] > k {
			return fmt.Errorf("result unsorted at %d: %d > %d", i, out[i-1], k)
		}
		counts[k]--
		if counts[k] < 0 {
			return fmt.Errorf("result key %d not a permutation of the input (extra %d)", i, k)
		}
	}
	for k, c := range counts {
		if c != 0 {
			return fmt.Errorf("result lost %d copies of key %d", c, k)
		}
	}
	return nil
}

// checkAttemptHistory asserts the dimension/spare trajectory of the
// attempt history: full dimension preserved while spares remain,
// shrink only after pool exhaustion, spare labels consumed in order,
// and per-attempt virtual costs positive (the monotone virtual-time
// series).
func checkAttemptHistory(sc Scenario, rep *recovery.Report) error {
	wantDim := sc.Dim
	sparesUsed := 0
	spareBase := 1 << uint(sc.Dim)
	for i, a := range rep.Attempts {
		if a.Dim != wantDim {
			return fmt.Errorf("attempt %d ran at dim %d, want %d", i, a.Dim, wantDim)
		}
		if a.Cost <= 0 {
			return fmt.Errorf("attempt %d cost %d vticks; every attempt charges virtual time", i, a.Cost)
		}
		switch {
		case a.Substituted != recovery.NoNode:
			if a.Quarantined == recovery.NoNode {
				return fmt.Errorf("attempt %d substituted %d without a quarantine", i, a.Substituted)
			}
			if sparesUsed >= sc.Spares {
				return fmt.Errorf("attempt %d substituted beyond the %d-spare pool", i, sc.Spares)
			}
			if want := spareBase + sparesUsed; a.Substituted != want {
				return fmt.Errorf("attempt %d activated spare %d, want %d (in-order consumption)", i, a.Substituted, want)
			}
			sparesUsed++
		case a.Quarantined != recovery.NoNode:
			// A shrink: legal only once the pool is dry.
			if sparesUsed < sc.Spares {
				return fmt.Errorf("attempt %d shrank the cube with %d spares still pooled", i, sc.Spares-sparesUsed)
			}
			wantDim--
		}
	}
	if rep.FinalDim != wantDim {
		// FinalDim is the dimension of the last attempt actually run,
		// so a budget-exhausted run whose final act was a
		// shrink-quarantine legally sits one dimension above the
		// trajectory endpoint: the shrunk cube never got an attempt.
		last := rep.Attempts[len(rep.Attempts)-1]
		trailingShrink := !last.Verified && last.Quarantined != recovery.NoNode &&
			last.Substituted == recovery.NoNode
		if !(trailingShrink && rep.FinalDim == wantDim+1 && rep.FinalDim == last.Dim) {
			return fmt.Errorf("FinalDim = %d, trajectory says %d", rep.FinalDim, wantDim)
		}
	}
	return nil
}

// VerifyReport checks the supervisor's bookkeeping for internal
// self-consistency, independent of any scenario:
//
//   - attempts partition exactly into retries + shrink-quarantines +
//     substitutions + verified successes;
//   - the verified attempt, if any, is unique and last;
//   - WastedCost equals the sum of the failed attempts' costs and
//     TotalBackoff the sum of the per-attempt waits;
//   - Quarantined and Substitutions mirror the per-attempt records in
//     order;
//   - each attempt's logical→physical map is a well-formed injective
//     relabeling that reflects the previous attempt's repair.
//
// When m is non-nil it must be the run's private metrics bundle; the
// report is additionally cross-checked against the observability
// series the supervisor emitted — TotalBackoff against the backoff
// counter, WastedCost against the wasted-vticks counter, and the
// attempt/quarantine/substitution counts against theirs — so a drift
// between the Report and the obs layer fails every chaos run.
func VerifyReport(rep *recovery.Report, m *obs.Metrics) error {
	var wasted int64
	var backoff time.Duration
	var quarantined []int
	var subs []recovery.Substitution
	retries, shrinks, substitutions, successes := 0, 0, 0, 0
	for i, a := range rep.Attempts {
		if a.Index != i {
			return fmt.Errorf("attempt %d records index %d", i, a.Index)
		}
		if len(a.Physical) != 1<<uint(a.Dim) {
			return fmt.Errorf("attempt %d: %d physical labels for dim %d", i, len(a.Physical), a.Dim)
		}
		seen := make(map[int]bool, len(a.Physical))
		for _, ph := range a.Physical {
			if seen[ph] {
				return fmt.Errorf("attempt %d: physical label %d mapped twice", i, ph)
			}
			seen[ph] = true
		}
		if i == 0 && a.Backoff != 0 {
			return fmt.Errorf("first attempt waited %v", a.Backoff)
		}
		backoff += a.Backoff
		if a.Verified {
			if a.Err != nil {
				return fmt.Errorf("attempt %d verified with error %v", i, a.Err)
			}
			if i != len(rep.Attempts)-1 {
				return fmt.Errorf("verified attempt %d is not last of %d", i, len(rep.Attempts))
			}
			successes++
			continue
		}
		if a.Err == nil {
			return fmt.Errorf("attempt %d failed with nil error", i)
		}
		wasted += a.Cost
		switch {
		case a.Substituted != recovery.NoNode:
			substitutions++
			quarantined = append(quarantined, a.Quarantined)
			subs = append(subs, recovery.Substitution{Suspect: a.Quarantined, Spare: a.Substituted, Attempt: i})
		case a.Quarantined != recovery.NoNode:
			shrinks++
			quarantined = append(quarantined, a.Quarantined)
		default:
			retries++
		}
	}
	if total := retries + shrinks + substitutions + successes; total != len(rep.Attempts) {
		return fmt.Errorf("classification covers %d of %d attempts", total, len(rep.Attempts))
	}
	if wasted != rep.WastedCost {
		return fmt.Errorf("WastedCost = %d, per-attempt failed costs sum to %d", rep.WastedCost, wasted)
	}
	if backoff != rep.TotalBackoff {
		return fmt.Errorf("TotalBackoff = %v, per-attempt waits sum to %v", rep.TotalBackoff, backoff)
	}
	if len(quarantined) != len(rep.Quarantined) {
		return fmt.Errorf("Quarantined = %v, attempts record %v", rep.Quarantined, quarantined)
	}
	for i := range quarantined {
		if quarantined[i] != rep.Quarantined[i] {
			return fmt.Errorf("Quarantined = %v, attempts record %v", rep.Quarantined, quarantined)
		}
	}
	if len(subs) != len(rep.Substitutions) {
		return fmt.Errorf("Substitutions = %v, attempts record %v", rep.Substitutions, subs)
	}
	for i := range subs {
		if subs[i] != rep.Substitutions[i] {
			return fmt.Errorf("Substitutions = %v, attempts record %v", rep.Substitutions, subs)
		}
	}
	if len(rep.Substitutions) > len(rep.Quarantined) {
		return fmt.Errorf("%d substitutions exceed %d quarantines", len(rep.Substitutions), len(rep.Quarantined))
	}
	if n := len(rep.Attempts); n > 0 && rep.FinalDim != rep.Attempts[n-1].Dim {
		return fmt.Errorf("FinalDim = %d, last attempt ran at %d", rep.FinalDim, rep.Attempts[n-1].Dim)
	}
	if m != nil {
		verified := int64(0)
		if n := len(rep.Attempts); n > 0 && rep.Attempts[n-1].Verified {
			verified = 1
		}
		checks := []struct {
			name string
			got  int64
			want int64
		}{
			{"recovery_attempts_total", m.RecoveryAttempts.Value(), int64(len(rep.Attempts))},
			{"recovery_retries_total", m.RecoveryRetries.Value(), int64(max(0, len(rep.Attempts)-1))},
			{"recovery_verified_total", m.RecoveryVerified.Value(), verified},
			{"recovery_quarantines_total", m.RecoveryQuarantines.Value(), int64(len(rep.Quarantined))},
			{"recovery_substitutions_total", m.RecoverySubstitutions.Value(), int64(len(rep.Substitutions))},
			{"recovery_wasted_vticks_total", m.RecoveryWastedVTicks.Value(), rep.WastedCost},
			{"recovery_backoff_nanos_total", m.RecoveryBackoffNanos.Value(), int64(rep.TotalBackoff)},
		}
		for _, c := range checks {
			if c.got != c.want {
				return fmt.Errorf("obs %s = %d, report says %d", c.name, c.got, c.want)
			}
		}
	}
	// Dimension/mapping trajectory: each repair is reflected in the
	// next attempt's plan.
	for i := 1; i < len(rep.Attempts); i++ {
		prev, cur := rep.Attempts[i-1], rep.Attempts[i]
		switch {
		case prev.Substituted != recovery.NoNode:
			if cur.Dim != prev.Dim {
				return fmt.Errorf("attempt %d: substitution changed dim %d → %d", i, prev.Dim, cur.Dim)
			}
			if !contains(cur.Physical, prev.Substituted) || contains(cur.Physical, prev.Quarantined) {
				return fmt.Errorf("attempt %d map %v does not reflect substitution %d→%d",
					i, cur.Physical, prev.Quarantined, prev.Substituted)
			}
		case prev.Quarantined != recovery.NoNode:
			if cur.Dim != prev.Dim-1 {
				return fmt.Errorf("attempt %d: shrink changed dim %d → %d", i, prev.Dim, cur.Dim)
			}
			if contains(cur.Physical, prev.Quarantined) {
				return fmt.Errorf("attempt %d map %v retains quarantined node %d", i, cur.Physical, prev.Quarantined)
			}
		default:
			if cur.Dim != prev.Dim {
				return fmt.Errorf("attempt %d: retry changed dim %d → %d", i, prev.Dim, cur.Dim)
			}
		}
	}
	return nil
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}
