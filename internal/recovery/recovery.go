// Package recovery closes the loop the paper leaves open. Theorem 3
// guarantees the sort fail-stops on any single fault and Section 1
// promises only that "reliable communication of this diagnostic
// information is provided to the system so that appropriate actions
// may be taken" — this package takes those actions. A Supervisor
// drives repeated sort attempts to a verified result:
//
//	detect ──► diagnose ──► transient? ──► backoff ──► re-execute
//	                │
//	                └─ persistent (same suspect accused across
//	                   attempts) ──► quarantine the suspect and repair:
//	                   substitute a spare at the suspect's slot (full
//	                   dimension preserved) while the Policy.Spares
//	                   pool lasts, else remap the survivors onto the
//	                   next-smaller subcube; either way re-run from the
//	                   host-held input
//
// The host holds the original input for the whole supervision (the
// environment's reliable checkpoint), so every attempt restarts from
// scratch; no partial distributed state is ever trusted. When the
// attempt budget is spent the supervisor escalates with an
// ExhaustedError carrying the supervision's Report — it never returns
// an unverified result, preserving the fail-stop contract one layer
// up. The Report is the supervision's only record: the supervisor
// journals nothing, and a caller adds the finished Report to its
// recovery counters with Count.
package recovery

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
)

// NoNode marks "no node" in quarantine fields.
const NoNode = -1

// persistStreak is how many consecutive attempts must accuse the same
// prime suspect before the fault is judged persistent and the suspect
// quarantined: one retry proves the episode was not transient.
const persistStreak = 2

// dimFloor is the smallest cube dimension quarantine may shrink to: a
// pair of nodes, since dimension 0 cannot cross-check.
const dimFloor = 1

// Backoff configures the capped exponential backoff (with equal
// jitter) applied before every attempt after the first. The zero value
// selects the defaults.
type Backoff struct {
	// Base is the nominal wait before the first retry; it doubles per
	// subsequent retry. Default 10ms.
	Base time.Duration
	// Max caps the nominal wait. Default 2s.
	Max time.Duration
	// Jitter is the fraction of each wait that is randomized (equal
	// jitter: wait = nominal·(1−Jitter) + U[0,1)·nominal·Jitter).
	// Negative disables jitter; 0 selects the default 0.5.
	Jitter float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 10 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Jitter == 0 {
		b.Jitter = 0.5
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	if b.Jitter > 1 {
		b.Jitter = 1
	}
	return b
}

// wait returns the backoff before retry number retry (1-based).
func (b Backoff) wait(retry int, rng *rand.Rand) time.Duration {
	nominal := b.Base
	for i := 1; i < retry && nominal < b.Max; i++ {
		nominal *= 2
	}
	if nominal > b.Max {
		nominal = b.Max
	}
	if b.Jitter == 0 {
		return nominal
	}
	fixed := float64(nominal) * (1 - b.Jitter)
	return time.Duration(fixed + rng.Float64()*float64(nominal)*b.Jitter)
}

// Policy tunes a supervision. The zero value selects the defaults.
type Policy struct {
	// MaxAttempts is the total sort-attempt budget, quarantined
	// re-runs included. Default 4.
	MaxAttempts int
	// Backoff shapes the waits between attempts.
	Backoff Backoff
	// Spares is the pool of spare physical node labels, consumed in
	// order. While the pool lasts, a quarantine substitutes the next
	// spare at the suspect's logical slot instead of shrinking the
	// cube, so repair costs one node instead of half the machine (the
	// N-modular-sparing alternative to graceful degradation). Labels
	// must be distinct and outside the initial cube [0, 2^dim).
	Spares []int
	// Seed makes the backoff jitter deterministic; 0 uses a fixed
	// default seed so supervisions are reproducible by default.
	Seed int64
	// Sleep replaces time.Sleep between attempts; tests inject a no-op
	// or a recorder. Nil means real sleeping.
	Sleep func(time.Duration)
	// Flight, when non-nil, receives a supervisor-level forensic dump on
	// every quarantine decision: the Quarantine event lands on the host
	// ring and the resulting report names the culprit. Share the Flight
	// the attempts' transports and node options were traced with so the
	// dump's rings hold the evidence that drove the diagnosis.
	Flight *forensic.Flight
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	p.Backoff = p.Backoff.withDefaults()
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// Plan tells the runner what the next attempt looks like: the cube
// dimension to build and the identity of each logical slot.
type Plan struct {
	// Attempt is the 0-based attempt index.
	Attempt int
	// Dim is the hypercube dimension for this attempt.
	Dim int
	// Physical[l] is the physical (original-cube) label of logical
	// node l; attempt 0 is the identity. Fault injectors and operators
	// reason in physical labels, which stay stable across shrinks and
	// substitutions (a spare keeps its own label when it enters the
	// cube).
	Physical []int
	// Spares is the remaining spare pool, in consumption order. A
	// runner that models the machine pre-registers these as idle
	// endpoints so a substituted spare is a part that was already
	// powered, not one conjured at quarantine time.
	Spares []int
}

// Outcome is what one attempt produced.
type Outcome struct {
	// HostErrors are the diagnostic ERROR signals the attempt
	// delivered (empty on success or on unattributable failures).
	HostErrors []core.HostError
	// Cost is the attempt's virtual-time makespan in ticks, whether or
	// not it succeeded; failed attempts accumulate into WastedCost.
	Cost int64
	// Err is nil exactly when the attempt produced a *verified*
	// result. The runner must not report success on any other basis.
	Err error
}

// Runner executes one sort attempt according to plan and reports what
// happened. On success the runner keeps the result itself (the
// supervisor never touches payload data).
type Runner func(p Plan) Outcome

// Attempt is the per-attempt telemetry record.
type Attempt struct {
	// Index and Dim echo the plan.
	Index int
	Dim   int
	// Physical is the logical→physical mapping used.
	Physical []int
	// Backoff is the wait that preceded this attempt (0 for the first).
	Backoff time.Duration
	// HostErrors is the attempt's diagnostic evidence.
	HostErrors []core.HostError
	// Suspects is the diagnosis ranking in physical labels.
	Suspects []diagnose.Suspect
	// Quarantined is the physical node dropped after this attempt
	// (NoNode when no quarantine was decided).
	Quarantined int
	// Substituted is the spare physical label activated at the
	// suspect's logical slot (NoNode when the quarantine shrank the
	// cube instead, or when no quarantine was decided).
	Substituted int
	// Cost is the attempt's virtual-time makespan.
	Cost int64
	// Err is the attempt's failure, nil for the verified success.
	Err error
	// Verified marks the successful final attempt.
	Verified bool
}

// Substitution records one spare activation: after attempt Attempt
// the persistently accused Suspect was dropped and Spare took over its
// logical slot, preserving the cube dimension.
type Substitution struct {
	// Suspect is the quarantined physical label.
	Suspect int
	// Spare is the activated spare's physical label.
	Spare int
	// Attempt is the 0-based attempt index after which the
	// substitution was decided.
	Attempt int
}

// Report aggregates a supervision: the attempt history plus the
// recovery-overhead accounting, the analogue of the paper's S_FT
// overhead numbers for the recovery layer.
type Report struct {
	// Attempts is the full history, in order.
	Attempts []Attempt
	// FinalDim is the cube dimension of the last attempt.
	FinalDim int
	// Quarantined lists the physical labels dropped, in order
	// (suspects repaired by substitution included).
	Quarantined []int
	// Substitutions lists the spare activations, in order. Every
	// substitution corresponds to one Quarantined entry; quarantines
	// beyond len(Substitutions) fell back to subcube shrinks.
	Substitutions []Substitution
	// WastedCost is the virtual time burned by failed attempts.
	WastedCost int64
	// TotalBackoff is the wall-clock time spent waiting between
	// attempts.
	TotalBackoff time.Duration
}

// Count adds the finished supervision to m's recovery counters: its
// attempts, the retries among them, a verified result, its
// quarantines and substitutions, the virtual time its failed attempts
// burned and its backoff waits. Call it once per supervision, verified
// or exhausted. Nil-safe on both sides.
func (r *Report) Count(m *obs.Metrics) {
	if r == nil || m == nil {
		return
	}
	n := len(r.Attempts)
	m.RecoveryAttempts.Add(int64(n))
	m.RecoveryRetries.Add(int64(n - 1))
	if n > 0 && r.Attempts[n-1].Verified {
		m.RecoveryVerified.Inc()
	}
	m.RecoveryQuarantines.Add(int64(len(r.Quarantined)))
	m.RecoverySubstitutions.Add(int64(len(r.Substitutions)))
	m.RecoveryWastedVTicks.Add(r.WastedCost)
	m.RecoveryBackoffNanos.Add(int64(r.TotalBackoff))
}

// ExhaustedError escalates a supervision that spent its budget without
// a verified result. It carries the supervision's Report, so the
// operator inherits every diagnosis the supervisor made and knows
// which spares were consumed in vain.
type ExhaustedError struct {
	*Report
}

// Error implements the error interface.
func (e *ExhaustedError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "recovery: attempt budget exhausted after %d attempts", len(e.Attempts))
	if len(e.Quarantined) > 0 {
		fmt.Fprintf(&b, " (quarantined nodes %v)", e.Quarantined)
	}
	if len(e.Substitutions) > 0 {
		spares := make([]int, len(e.Substitutions))
		for i, s := range e.Substitutions {
			spares[i] = s.Spare
		}
		fmt.Fprintf(&b, " (spares consumed %v)", spares)
	}
	if last := e.lastErr(); last != nil {
		fmt.Fprintf(&b, "; last error: %v", last)
	}
	return b.String()
}

// Unwrap exposes the last attempt's error for errors.Is/As chains.
func (e *ExhaustedError) Unwrap() error { return e.lastErr() }

func (e *ExhaustedError) lastErr() error {
	for i := len(e.Attempts) - 1; i >= 0; i-- {
		if e.Attempts[i].Err != nil {
			return e.Attempts[i].Err
		}
	}
	return nil
}

// Supervise drives runner to a verified result on a cube of dimension
// dim. It returns the telemetry report on success and an
// *ExhaustedError carrying it when the attempt budget is spent; any
// other error is a configuration problem. The supervisor itself never
// sees result data, so it structurally cannot return an unverified
// answer.
func Supervise(dim int, runner Runner, pol Policy) (*Report, error) {
	if runner == nil {
		return nil, fmt.Errorf("recovery: nil runner")
	}
	if dim < 0 || dim > hypercube.MaxDim {
		return nil, fmt.Errorf("recovery: dimension %d out of range [0,%d]", dim, hypercube.MaxDim)
	}
	pol = pol.withDefaults()
	if err := validateSpares(pol.Spares, dim); err != nil {
		return nil, err
	}
	// The jitter source is seeded at the first retry, so a run that
	// verifies on its first attempt never pays for seeding it.
	var rng *rand.Rand
	physical := make([]int, 1<<uint(dim))
	for i := range physical {
		physical[i] = i
	}
	spares := append([]int(nil), pol.Spares...)
	hist := diagnose.NewHistory()
	rep := &Report{FinalDim: dim}

	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		var wait time.Duration
		if attempt > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(pol.Seed))
			}
			wait = pol.Backoff.wait(attempt, rng)
			pol.Sleep(wait)
			rep.TotalBackoff += wait
		}
		plan := Plan{
			Attempt:  attempt,
			Dim:      dim,
			Physical: append([]int(nil), physical...),
			Spares:   append([]int(nil), spares...),
		}
		out := runner(plan)
		att := Attempt{
			Index:       attempt,
			Dim:         dim,
			Physical:    plan.Physical,
			Backoff:     wait,
			HostErrors:  out.HostErrors,
			Quarantined: NoNode,
			Substituted: NoNode,
			Cost:        out.Cost,
			Err:         out.Err,
		}
		rep.FinalDim = dim
		if out.Err == nil {
			att.Verified = true
			rep.Attempts = append(rep.Attempts, att)
			return rep, nil
		}
		rep.WastedCost += out.Cost
		att.Suspects = physicalSuspects(diagnose.Rank(out.HostErrors), physical)
		if len(att.Suspects) > 0 {
			hist.Record(att.Suspects[0].Node)
		} else {
			hist.Record(diagnose.NoSuspect)
		}
		if culprit, ok := hist.Persistent(persistStreak); ok {
			if logical := logicalOf(physical, culprit); logical >= 0 {
				newPhys, newSpares, newDim, spare, acted := remap(physical, spares, logical, dim, dimFloor)
				if acted {
					physical, spares, dim = newPhys, newSpares, newDim
					att.Quarantined = culprit
					att.Substituted = spare
					rep.Quarantined = append(rep.Quarantined, culprit)
					pol.Flight.Quarantine(culprit, attempt,
						fmt.Sprintf("persistent accusation streak against physical node %d", culprit))
					if spare != NoNode {
						rep.Substitutions = append(rep.Substitutions,
							Substitution{Suspect: culprit, Spare: spare, Attempt: attempt})
					}
					// The suspect is gone; accusations against it must not
					// condemn whoever inherits its traffic pattern.
					hist.Reset()
				}
			}
		}
		rep.Attempts = append(rep.Attempts, att)
	}
	return nil, &ExhaustedError{rep}
}

// validateSpares rejects spare pools the substitution policy cannot
// honor: labels inside the initial cube would collide with an active
// node's identity, and duplicates would activate the same part twice.
func validateSpares(spares []int, dim int) error {
	n := 1 << uint(dim)
	seen := make(map[int]bool, len(spares))
	for _, s := range spares {
		if s < n {
			return fmt.Errorf("recovery: spare label %d inside the initial cube [0,%d)", s, n)
		}
		if seen[s] {
			return fmt.Errorf("recovery: duplicate spare label %d", s)
		}
		seen[s] = true
	}
	return nil
}

// remap decides and applies the quarantine action for the persistent
// suspect at logical slot logical: while the spare pool lasts, the
// next spare is substituted at the suspect's slot and the dimension is
// preserved; with a dry pool the cube shrinks to the half opposite the
// suspect, but never below minDim (and never below dimension 0 — a
// dim-0 cube has no axis to drop). It returns the new
// logical→physical map, the remaining pool, the new dimension, the
// spare used (NoNode for a shrink), and whether any action was taken;
// acted == false means the supervisor keeps retrying undegraded.
func remap(physical, spares []int, logical, dim, minDim int) (newPhys, newSpares []int, newDim, spare int, acted bool) {
	if dim < 0 || logical < 0 || logical >= len(physical) || len(physical) != 1<<uint(dim) {
		return physical, spares, dim, NoNode, false
	}
	if len(spares) > 0 {
		out := append([]int(nil), physical...)
		out[logical] = spares[0]
		return out, spares[1:], dim, spares[0], true
	}
	if dim > minDim && dim > 0 {
		return shrink(physical, logical, dim), spares, dim - 1, NoNode, true
	}
	return physical, spares, dim, NoNode, false
}

// physicalSuspects translates a diagnosis ranking from the attempt's
// logical labels to stable physical labels, dropping accusations that
// name labels outside the cube (a Byzantine node can claim anything).
func physicalSuspects(ranked []diagnose.Suspect, physical []int) []diagnose.Suspect {
	out := make([]diagnose.Suspect, 0, len(ranked))
	for _, s := range ranked {
		if s.Node < 0 || s.Node >= len(physical) {
			continue
		}
		s.Node = physical[s.Node]
		out = append(out, s)
	}
	return out
}

// logicalOf finds the logical slot currently holding physical label p,
// -1 when p has already been dropped.
func logicalOf(physical []int, p int) int {
	for l, ph := range physical {
		if ph == p {
			return l
		}
	}
	return -1
}

// shrink quarantines the logical node suspect by keeping the
// (dim−1)-subcube on the other side of the cube's top axis — every
// survivor is relabeled by dropping that axis bit, so the kept half in
// ascending order is exactly the new logical range [0, 2^(dim−1)).
func shrink(physical []int, suspect, dim int) []int {
	axis := dim - 1
	keepBit := 1 - hypercube.Bit(suspect, axis)
	out := make([]int, 0, len(physical)/2)
	for l, p := range physical {
		if hypercube.Bit(l, axis) == keepBit {
			out = append(out, p)
		}
	}
	return out
}
