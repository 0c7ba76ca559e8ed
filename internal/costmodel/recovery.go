// Recovery-aware cost model: the extension of the paper's Section 5
// overhead analysis from detection to repair. The paper prices S_FT's
// fault-free overhead (comm = 8·lg²N + 0.05·N·lgN, comp = 11.5·N) and
// stops at the fail-stop; this file prices what happens next, in the
// MTTF-driven framing of Gray's failure-rate analyses: fault arrivals
// at a rate set by per-node MTTF and the attempt's virtual-time
// length, detection with an empirically calibrated coverage fraction,
// retries under capped exponential backoff, persistent-suspect
// quarantine after a streak of same-suspect accusations, and repair by
// spare substitution (full dimension preserved) or subcube shrink.
//
// A RecoveryModel is a forward probability-mass recursion over the
// supervisor's exact state machine (internal/recovery.Supervise) — not
// a closed-form formula — so a Breakdown's expectations can be
// validated against measured seeded sweeps attempt for attempt. The
// model implements Coster, so the Figure 7 question "when does
// reliable parallel sorting win" is answerable with repair cost
// included via the same Project/Crossover machinery as the fault-free
// regime.
package costmodel

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/recovery"
)

// FaultRegime is the fault environment a supervision runs in: a
// per-node MTTF in virtual ticks, and the transient/persistent split
// of arrivals. Arrivals are memoryless, so the probability that a
// fault arrives somewhere in an n-node cube during an attempt of T
// ticks is 1 − exp(−n·T/MTTF) — the exponential-arrival form the
// MTTF literature uses.
type FaultRegime struct {
	// MTTF is the per-node mean virtual time between fault arrivals,
	// in vticks. Zero or negative means a fault-free machine.
	MTTF float64
	// PersistentFrac is the probability that an arrival is a
	// persistent (hard) fault that manifests on every subsequent
	// attempt until its site is quarantined; the rest are transient
	// episodes that vanish after one attempt.
	PersistentFrac float64
}

// ArrivalProb returns the probability that at least one fault arrives
// in an n-node cube during an attempt of ticks virtual time.
func (r FaultRegime) ArrivalProb(nodes int, ticks float64) float64 {
	if r.MTTF <= 0 || nodes <= 0 || ticks <= 0 {
		return 0
	}
	return 1 - math.Exp(-float64(nodes)*ticks/r.MTTF)
}

// PolicyParams are the supervisor settings a caller picks: the attempt
// budget and the spare pool. The zero value is the supervisor's default
// budget and no spares. The rest of the policy the model prices is
// internal/recovery's own constants: the persistence streak
// (recovery.PersistStreak), the quarantine's dimension floor
// (recovery.DimFloor) and the backoff shape (recovery.BackoffBase,
// BackoffMax, BackoffJitter).
type PolicyParams struct {
	// MaxAttempts is the attempt budget; zero means
	// recovery.DefaultMaxAttempts.
	MaxAttempts int
	// Spares is the spare-pool size; substitutions preserve the cube
	// dimension while the pool lasts.
	Spares int
}

// Breakdown's recursion opens a streak at a fresh persistent fault and
// completes it on a later attempt, so it needs the supervisor's streak
// to be at least 2; this constant fails the build otherwise.
const _ = uint(recovery.PersistStreak - 2)

func (p PolicyParams) withDefaults() PolicyParams {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = recovery.DefaultMaxAttempts
	}
	if p.Spares < 0 {
		p.Spares = 0
	}
	return p
}

// expectedBackoff returns the supervisor's expected wait in
// nanoseconds before retry number retry (1-based): the capped doubled
// nominal scaled by the equal-jitter expectation nominal·(1 − jitter/2).
func expectedBackoff(retry int) float64 {
	nominal, limit := float64(recovery.BackoffBase), float64(recovery.BackoffMax)
	for i := 1; i < retry && nominal < limit; i++ {
		nominal *= 2
	}
	if nominal > limit {
		nominal = limit
	}
	return nominal * (1 - recovery.BackoffJitter/2)
}

// Calibration holds the empirically fitted per-attempt overhead terms
// that close the gap between the idealized state machine and the
// measured system (experiments.CalibrateRecovery produces them from
// seeded simnet sweeps).
type Calibration struct {
	// DetectFrac is the probability that a manifested fault actually
	// fail-stops the attempt. Coverage is high but not 1: a Byzantine
	// act can be harmless on a given workload (the fault-injection
	// campaign's CorrectDespiteFault verdict), in which case the
	// attempt completes verified.
	DetectFrac float64
	// WasteFrac is a failed attempt's cost as a fraction of the
	// fault-free attempt cost at the same geometry: detection can
	// fail-stop the run before the full schedule completes.
	WasteFrac float64
}

// DefaultCalibration is the uncalibrated idealization: every
// manifested fault is detected and a failed attempt costs a full
// attempt.
func DefaultCalibration() Calibration {
	return Calibration{DetectFrac: 1, WasteFrac: 1}
}

func (c Calibration) withDefaults() Calibration {
	if c.DetectFrac <= 0 || c.DetectFrac > 1 {
		c.DetectFrac = 1
	}
	if c.WasteFrac <= 0 {
		c.WasteFrac = 1
	}
	return c
}

// RecoveryModel composes a fault-free cost model with a FaultRegime,
// the supervisor's policy, and calibrated overheads, yielding expected
// end-to-end cost under faults. It implements Coster.
type RecoveryModel struct {
	// Name labels the model in projection tables.
	Name string
	// AttemptTicks prices one fault-free attempt at cube dimension d,
	// in vticks. NewRecoveryModel derives it from a base Coster;
	// validation harnesses install a measured-baseline table instead
	// so predictions are comparable to seeded runs tick for tick.
	AttemptTicks func(dim int) (float64, error)
	// Regime is the fault environment.
	Regime FaultRegime
	// Policy is the supervisor configuration.
	Policy PolicyParams
	// Calib holds the fitted detection/waste fractions.
	Calib Calibration
}

// NewRecoveryModel builds a recovery-aware model over any fault-free
// base Coster: one attempt at dimension d costs base.Total(2^d).
func NewRecoveryModel(name string, base Coster, regime FaultRegime, pol PolicyParams, cal Calibration) *RecoveryModel {
	return &RecoveryModel{
		Name: name,
		AttemptTicks: func(dim int) (float64, error) {
			return base.Total(float64(int64(1) << uint(dim)))
		},
		Regime: regime,
		Policy: pol,
		Calib:  cal,
	}
}

// AttemptTable returns an AttemptTicks function backed by a
// dim→vticks table of measured fault-free baselines.
func AttemptTable(baselines map[int]float64) func(dim int) (float64, error) {
	return func(dim int) (float64, error) {
		t, ok := baselines[dim]
		if !ok {
			return 0, fmt.Errorf("costmodel: no attempt baseline for dim %d", dim)
		}
		return t, nil
	}
}

// Breakdown is the expectation decomposition of a supervision: where
// the virtual time goes when the §5 analysis is carried through the
// repair loop.
type Breakdown struct {
	// Dim is the initial cube dimension.
	Dim int
	// BaselineTicks is the fault-free single-attempt cost at Dim.
	BaselineTicks float64
	// ExpectedTicks is E[Σ attempt costs]: the successful attempt's
	// full cost plus every failed attempt's wasted cost, exhausted
	// supervisions included.
	ExpectedTicks float64
	// ExpectedAttempts and ExpectedRetries are E[attempts run] and
	// E[attempts after the first].
	ExpectedAttempts float64
	ExpectedRetries  float64
	// ExpectedWastedTicks is E[virtual time burned by failed
	// attempts] — the recovery_wasted_vticks_total series in
	// expectation.
	ExpectedWastedTicks float64
	// ExpectedBackoffNanos is E[wall-clock between-attempt wait].
	ExpectedBackoffNanos float64
	// ExpectedQuarantines, ExpectedSubstitutions and ExpectedShrinks
	// count the repair actions in expectation (quarantines =
	// substitutions + shrinks).
	ExpectedQuarantines   float64
	ExpectedSubstitutions float64
	ExpectedShrinks       float64
	// PVerified and PExhausted split the outcome mass: verified
	// result within budget vs ExhaustedError escalation.
	PVerified  float64
	PExhausted float64
	// Overhead is ExpectedTicks/BaselineTicks − 1: the fractional
	// repair-loop cost over the fault-free run, the recovery analogue
	// of the paper's S_FT/S_NR overhead ratio.
	Overhead float64
}

// state is one configuration of the supervisor's machine: current
// dimension, spares left, and the active persistent fault's accusation
// streak (0 = no persistent fault active).
type state struct {
	dim    int
	spares int
	streak int
}

// sortedStates returns mass's states ordered by (dim, spares, streak).
// The recursion folds states in this order, not the map's, so its
// floating-point sums add up the same way, to the same bits, on every
// run.
func sortedStates(mass map[state]float64) []state {
	sts := make([]state, 0, len(mass))
	for st := range mass {
		sts = append(sts, st)
	}
	slices.SortFunc(sts, func(a, b state) int {
		return cmp.Or(cmp.Compare(a.dim, b.dim), cmp.Compare(a.spares, b.spares), cmp.Compare(a.streak, b.streak))
	})
	return sts
}

// Breakdown runs the probability-mass recursion for an initial cube of
// dimension dim and returns the expectation decomposition.
//
// The recursion mirrors internal/recovery.Supervise exactly, under the
// single-fault-at-a-time regime the paper's Theorem 3 analyses: each
// attempt either runs clean, suffers a fresh arrival (persistent with
// probability PersistentFrac), or re-manifests the active persistent
// fault. A manifested fault fail-stops the attempt with probability
// DetectFrac — an undetected manifestation completes verified (the
// CorrectDespiteFault case), ending the supervision. Detected
// persistent faults accumulate a same-suspect streak; at
// recovery.PersistStreak the suspect is quarantined — substitution
// while spares last, shrink above recovery.DimFloor, and a floor state that can only retry once both are
// spent (the supervisor's acted == false branch).
func (rm *RecoveryModel) Breakdown(dim int) (Breakdown, error) {
	if rm == nil || rm.AttemptTicks == nil {
		return Breakdown{}, fmt.Errorf("costmodel: recovery model has no attempt cost")
	}
	if dim < 1 {
		return Breakdown{}, fmt.Errorf("costmodel: recovery breakdown at dim %d", dim)
	}
	pol := rm.Policy.withDefaults()
	cal := rm.Calib.withDefaults()

	// Attempt costs for every reachable dimension, resolved up front
	// so cost errors surface before any mass moves.
	minDim := recovery.DimFloor
	if minDim > dim {
		minDim = dim
	}
	ticks := make(map[int]float64, dim-minDim+1)
	for d := dim; d >= minDim; d-- {
		t, err := rm.AttemptTicks(d)
		if err != nil {
			return Breakdown{}, err
		}
		if t <= 0 {
			return Breakdown{}, fmt.Errorf("costmodel: attempt cost %v at dim %d", t, d)
		}
		ticks[d] = t
	}

	bd := Breakdown{Dim: dim, BaselineTicks: ticks[dim]}
	mass := map[state]float64{{dim: dim, spares: pol.Spares}: 1}
	eps := cal.DetectFrac
	rho := rm.Regime.PersistentFrac

	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		next := make(map[state]float64, len(mass))
		for _, st := range sortedStates(mass) {
			w := mass[st]
			if w == 0 {
				continue
			}
			T := ticks[st.dim]
			bd.ExpectedAttempts += w
			if attempt > 0 {
				bd.ExpectedRetries += w
				bd.ExpectedBackoffNanos += w * expectedBackoff(attempt)
			}

			// pFail is this attempt's fail-stop probability; the
			// complement completes verified and leaves the recursion.
			var pFail float64
			if st.streak > 0 {
				// Active persistent fault: it manifests for certain,
				// fail-stops with the calibrated coverage.
				pFail = eps
			} else {
				pFail = rm.Regime.ArrivalProb(1<<uint(st.dim), T) * eps
			}
			pOK := 1 - pFail
			bd.PVerified += w * pOK
			bd.ExpectedTicks += w * (pOK*T + pFail*cal.WasteFrac*T)
			bd.ExpectedWastedTicks += w * pFail * cal.WasteFrac * T
			if pFail == 0 {
				continue
			}

			move := func(to state, m float64) {
				if m > 0 {
					next[to] += m
				}
			}
			if st.streak > 0 {
				// Detected re-manifestation: streak grows; at the
				// policy threshold the suspect is quarantined.
				ns := st
				ns.streak++
				if ns.streak < recovery.PersistStreak {
					move(ns, w*pFail)
					continue
				}
				switch {
				case st.spares > 0:
					bd.ExpectedQuarantines += w * pFail
					bd.ExpectedSubstitutions += w * pFail
					move(state{dim: st.dim, spares: st.spares - 1}, w*pFail)
				case st.dim > recovery.DimFloor:
					bd.ExpectedQuarantines += w * pFail
					bd.ExpectedShrinks += w * pFail
					move(state{dim: st.dim - 1, spares: st.spares}, w*pFail)
				default:
					// Floor: the supervisor takes no action and the
					// fault stays; the streak stays saturated.
					move(ns, w*pFail)
				}
				continue
			}
			// Fresh arrival, detected: transient episodes clear by the
			// next attempt; persistent ones open a streak at 1 (this
			// attempt's accusation), quarantined once a later attempt
			// brings it to the supervisor's threshold.
			move(state{dim: st.dim, spares: st.spares}, w*pFail*(1-rho))
			if rho > 0 {
				move(state{dim: st.dim, spares: st.spares, streak: 1}, w*pFail*rho)
			}
		}
		mass = next
	}
	for _, st := range sortedStates(mass) {
		bd.PExhausted += mass[st]
	}
	if bd.BaselineTicks > 0 {
		bd.Overhead = bd.ExpectedTicks/bd.BaselineTicks - 1
	}
	return bd, nil
}

// CostName implements Coster.
func (rm *RecoveryModel) CostName() string { return rm.Name }

// Total implements Coster: the expected end-to-end virtual time of a
// supervised sort on the cube with n nodes (n must be a power of two,
// as every projection in this package steps in dimensions).
func (rm *RecoveryModel) Total(n float64) (float64, error) {
	dim, err := dimOf(n)
	if err != nil {
		return 0, err
	}
	bd, err := rm.Breakdown(dim)
	if err != nil {
		return 0, err
	}
	return bd.ExpectedTicks, nil
}

// OverheadPoint is one sample of the overhead-vs-fault-rate curve.
type OverheadPoint struct {
	// MTTF is the per-node mean time between faults, in vticks.
	MTTF float64
	// ArrivalsPerAttempt is the expected fault arrivals per fault-free
	// attempt at this MTTF (n·T/MTTF) — the dimensionless fault
	// pressure, comparable across cube sizes.
	ArrivalsPerAttempt float64
	// Overhead is E[total ticks]/baseline − 1.
	Overhead float64
	// ExpectedTicks is E[total ticks].
	ExpectedTicks float64
}

// OverheadCurve sweeps the model's fault regime over the given MTTF
// values at a fixed dimension, returning the overhead-vs-fault-rate
// curve the §5 extension plots: how the repair loop's expected cost
// grows as the machine gets less reliable.
func (rm *RecoveryModel) OverheadCurve(dim int, mttfs []float64) ([]OverheadPoint, error) {
	if rm == nil {
		return nil, fmt.Errorf("costmodel: nil recovery model")
	}
	out := make([]OverheadPoint, 0, len(mttfs))
	for _, mttf := range mttfs {
		m := *rm
		m.Regime.MTTF = mttf
		bd, err := m.Breakdown(dim)
		if err != nil {
			return nil, err
		}
		pt := OverheadPoint{MTTF: mttf, Overhead: bd.Overhead, ExpectedTicks: bd.ExpectedTicks}
		if mttf > 0 {
			pt.ArrivalsPerAttempt = float64(int64(1)<<uint(dim)) * bd.BaselineTicks / mttf
		}
		out = append(out, pt)
	}
	return out, nil
}

// dimOf maps a node count to its cube dimension, rejecting non-powers
// of two (tolerating float rounding from projection call sites).
func dimOf(n float64) (int, error) {
	if n < 2 {
		return 0, fmt.Errorf("costmodel: recovery model at N=%v", n)
	}
	dim := int(math.Round(math.Log2(n)))
	if math.Abs(float64(int64(1)<<uint(dim))-n) > 1e-6 {
		return 0, fmt.Errorf("costmodel: recovery model needs a power-of-two N, got %v", n)
	}
	return dim, nil
}
