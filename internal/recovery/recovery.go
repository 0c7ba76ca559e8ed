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
// up. A budget of one attempt is the paper's plain fail-stop: the
// first detected fault ends the supervision. The Report is the
// supervision's only record: the supervisor journals nothing, and a
// caller adds the finished Report to its recovery counters with Count.
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

// The supervisor's fixed policy, which internal/costmodel prices.

// PersistStreak is how many consecutive attempts must accuse the same
// prime suspect before the fault is judged persistent and the suspect
// quarantined: one retry proves the episode was not transient.
const PersistStreak = 2

// DimFloor is the smallest cube dimension quarantine may shrink to: a
// pair of nodes, since dimension 0 cannot cross-check.
const DimFloor = 1

// The wait before every attempt after the first is a capped
// exponential backoff with equal jitter: BackoffBase doubling per
// retry up to BackoffMax, of which the fraction BackoffJitter is drawn
// at random (wait = nominal·(1−jitter) + U[0,1)·nominal·jitter).
const (
	BackoffBase   = 10 * time.Millisecond
	BackoffMax    = 2 * time.Second
	BackoffJitter = 0.5
)

// DefaultMaxAttempts is the attempt budget of a Policy that sets none,
// and the budget internal/server gives each job.
const DefaultMaxAttempts = 4

// backoff returns the wait before retry number retry (1-based).
func backoff(retry int, rng *rand.Rand) time.Duration {
	nominal := BackoffBase
	for i := 1; i < retry && nominal < BackoffMax; i++ {
		nominal *= 2
	}
	nominal = min(nominal, BackoffMax)
	fixed := float64(nominal) * (1 - BackoffJitter)
	return time.Duration(fixed + rng.Float64()*float64(nominal)*BackoffJitter)
}

// Policy tunes a supervision. The zero value selects the defaults.
type Policy struct {
	// MaxAttempts is the total sort-attempt budget, quarantined
	// re-runs included. Default DefaultMaxAttempts.
	MaxAttempts int
	// Spares is the number of spare nodes, labelled 2^dim .. 2^dim+
	// Spares−1 and consumed in that order. While the pool lasts, a
	// quarantine substitutes the next spare at the suspect's logical
	// slot instead of shrinking the cube, so repair costs one node
	// instead of half the machine (the N-modular-sparing alternative to
	// graceful degradation).
	Spares int
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
		p.MaxAttempts = DefaultMaxAttempts
	}
	p.Spares = max(p.Spares, 0)
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
	// Spares is the number of spares left in the pool. A runner that
	// models the machine pre-registers that many idle endpoints beyond
	// the cube, so a substituted spare is a part that was already
	// powered, not one conjured at quarantine time.
	Spares int
}

// Outcome is what one attempt produced.
type Outcome struct {
	// HostErrors are the diagnostic ERROR signals the attempt
	// delivered (empty on success or on unattributable failures).
	HostErrors []core.HostError
	// Cost is the attempt's virtual-time makespan in ticks, whether or
	// not it succeeded; failed attempts' costs sum to the Report's
	// WastedCost.
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

// Report is a supervision's record: its attempts, in order. The
// recovery-overhead accounting, the analogue of the paper's S_FT
// overhead numbers for the recovery layer, is read off them.
type Report struct {
	Attempts []Attempt
}

// FinalDim is the cube dimension of the last attempt.
func (r *Report) FinalDim() int {
	if len(r.Attempts) == 0 {
		return 0
	}
	return r.Attempts[len(r.Attempts)-1].Dim
}

// Quarantined lists the physical labels dropped, in order (suspects
// repaired by substitution included).
func (r *Report) Quarantined() []int {
	var out []int
	for _, a := range r.Attempts {
		if a.Quarantined != NoNode {
			out = append(out, a.Quarantined)
		}
	}
	return out
}

// SparesUsed lists the spares activated, in order. Each took over the
// slot of one Quarantined entry; quarantines beyond len(SparesUsed())
// fell back to subcube shrinks.
func (r *Report) SparesUsed() []int {
	var out []int
	for _, a := range r.Attempts {
		if a.Substituted != NoNode {
			out = append(out, a.Substituted)
		}
	}
	return out
}

// WastedCost is the virtual time burned by failed attempts.
func (r *Report) WastedCost() int64 {
	var sum int64
	for _, a := range r.Attempts {
		if !a.Verified {
			sum += a.Cost
		}
	}
	return sum
}

// TotalBackoff is the wall-clock time spent waiting between attempts.
func (r *Report) TotalBackoff() time.Duration {
	var sum time.Duration
	for _, a := range r.Attempts {
		sum += a.Backoff
	}
	return sum
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
	m.RecoveryQuarantines.Add(int64(len(r.Quarantined())))
	m.RecoverySubstitutions.Add(int64(len(r.SparesUsed())))
	m.RecoveryWastedVTicks.Add(r.WastedCost())
	m.RecoveryBackoffNanos.Add(int64(r.TotalBackoff()))
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
	if q := e.Quarantined(); len(q) > 0 {
		fmt.Fprintf(&b, " (quarantined nodes %v)", q)
	}
	if used := e.SparesUsed(); len(used) > 0 {
		fmt.Fprintf(&b, " (spares consumed %v)", used)
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
//
// A fault is judged persistent once PersistStreak consecutive failed
// attempts name the same prime suspect, in physical labels so the
// streak survives remapping; an attempt that names another suspect, or
// none, starts the count again.
func Supervise(dim int, runner Runner, pol Policy) (*Report, error) {
	if runner == nil {
		return nil, fmt.Errorf("recovery: nil runner")
	}
	if dim < 0 || dim > hypercube.MaxDim {
		return nil, fmt.Errorf("recovery: dimension %d out of range [0,%d]", dim, hypercube.MaxDim)
	}
	pol = pol.withDefaults()
	// The jitter source is seeded at the first retry, so a run that
	// verifies on its first attempt never pays for seeding it.
	var rng *rand.Rand
	physical := make([]int, 1<<uint(dim))
	for i := range physical {
		physical[i] = i
	}
	// spares holds the labels of the spares not yet activated, the
	// pol.Spares labels just above the initial cube; it is built at the
	// first quarantine.
	var spares []int
	firstSpare := len(physical)
	suspect, streak := NoNode, 0
	rep := &Report{}

	for attempt := 0; attempt < pol.MaxAttempts; attempt++ {
		var wait time.Duration
		if attempt > 0 {
			if rng == nil {
				rng = rand.New(rand.NewSource(pol.Seed))
			}
			wait = backoff(attempt, rng)
			pol.Sleep(wait)
		}
		plan := Plan{
			Attempt:  attempt,
			Dim:      dim,
			Physical: append([]int(nil), physical...),
			Spares:   pol.Spares,
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
		if out.Err == nil {
			att.Verified = true
			rep.Attempts = append(rep.Attempts, att)
			return rep, nil
		}
		att.Suspects = physicalSuspects(diagnose.Rank(out.HostErrors), physical)
		prime := NoNode
		if len(att.Suspects) > 0 {
			prime = att.Suspects[0].Node
		}
		if prime != suspect {
			suspect, streak = prime, 0
		}
		if prime != NoNode {
			streak++
		}
		if streak >= PersistStreak {
			if logical := logicalOf(physical, prime); logical >= 0 {
				if spares == nil && pol.Spares > 0 {
					spares = make([]int, pol.Spares)
					for i := range spares {
						spares[i] = firstSpare + i
					}
				}
				newPhys, newSpares, newDim, spare, acted := remap(physical, spares, logical, dim, DimFloor)
				if acted {
					physical, spares, dim = newPhys, newSpares, newDim
					pol.Spares = len(spares)
					att.Quarantined = prime
					att.Substituted = spare
					pol.Flight.Quarantine(prime, attempt,
						fmt.Sprintf("persistent accusation streak against physical node %d", prime))
					// The suspect is gone; accusations against it must not
					// condemn whoever inherits its traffic pattern.
					suspect, streak = NoNode, 0
				}
			}
		}
		rep.Attempts = append(rep.Attempts, att)
	}
	return nil, &ExhaustedError{rep}
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
