// Package explore is the bounded interleaving explorer: schedule-space
// model checking of S_FT on small cubes.
//
// A free-running simnet exercises one interleaving per run — whatever
// the OS scheduler happens to produce. The explorer instead drives the
// network through simnet's controlled scheduler seam and enumerates
// *every* realizable delivery interleaving, crossed with every
// single-fault placement from the full four-way adversary taxonomy
// (message, absence, comparison, memory — fault.SingleFaultCases),
// asserting on every branch the two invariants the paper's Theorem 3
// rests on:
//
//   - fault-free runs terminate undetected with a verified ascending
//     permutation of the input, under every schedule;
//   - single-fault runs are verified-or-escalated: an undetected run's
//     output must still verify — silent corruption is the one outcome
//     the application-oriented paradigm forbids.
//
// The state space stays tractable through two mechanisms the simnet
// coordinator provides for free (DESIGN.md §11): forced deliveries
// (unique-writer FIFO queues never branch — DPOR-style independence by
// construction, deliveries to distinct receivers commute and are
// batched) and canonical state hashing (decision points that reach an
// already-expanded abstract state are pruned, which collapses the
// host-mailbox drain permutations every run ends with).
//
// A failing branch is shrunk to a 1-minimal schedule (removing any
// single directive makes it pass), replayed deterministically for its
// forensic dump, and packaged as a Reproducer — a self-contained JSON
// artifact Replay re-executes bit-identically.
package explore

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
)

// Invariant identifiers. A Violation's Invariant names which assertion
// its branch broke; the shrinker preserves it (the shrunk schedule
// fails the *same* invariant, not merely some invariant).
const (
	// InvFaultFree: a fault-free run must terminate undetected with a
	// verified sort under every schedule.
	InvFaultFree = "fault-free-sorts"
	// InvVerifiedOrEscalated: a faulted run must never end undetected
	// with a wrong output (Theorem 3's fail-stop guarantee).
	InvVerifiedOrEscalated = "verified-or-escalated"
)

// Config parameterizes one exploration sweep.
type Config struct {
	// Dim is the cube dimension (1 or 2 are tractable exhaustively).
	Dim int
	// Cases is the fault-placement menu; nil means the full
	// fault.SingleFaultCases(Dim) sweep.
	Cases []fault.Case
	// MaxDepth bounds the decision depth at which branches are
	// expanded; deeper decisions resolve canonically. 0 means
	// unbounded (exhaustive). CI smoke runs set a small bound.
	MaxDepth int
	// MaxBranches caps the executed branches per case; 0 means
	// unbounded. When the cap trips, the case is marked Truncated.
	MaxBranches int
	// WeakenChecks disables every node's executable assertions
	// (SkipChecks on honest nodes too) — the test-only hook that
	// demonstrates the explorer catching silent corruption: with the
	// checks gone, a lying node yields a shrunk, replayable
	// counterexample instead of a detection.
	WeakenChecks bool
}

// watchdog is the receive timeout handed to simnet. Under controlled
// scheduling absence resolves at quiescence, so it only bounds a wedged
// run.
const watchdog = 10 * time.Second

// Diagnosis is the explorer's classification of one branch, the
// fields Replay must reproduce: verdict, detector, predicate, accused
// node and earliest evidence coordinate.
type Diagnosis struct {
	// Verdict classifies the run (fault.Detected,
	// fault.CorrectDespiteFault, fault.SilentWrong).
	Verdict fault.Verdict `json:"verdict"`
	// Detector is the coverage-matrix column when Detected: the
	// predicate name, "absence", or "node-local".
	Detector string `json:"detector,omitempty"`
	// Predicate is the earliest host evidence's predicate class.
	Predicate string `json:"predicate,omitempty"`
	// Accused is the node the earliest evidence implicates, -1 when
	// none (and for undetected runs).
	Accused int `json:"accused"`
	// Stage/Iter locate the earliest detection evidence.
	Stage int `json:"stage"`
	Iter  int `json:"iter"`
}

// Violation is one counterexample: a schedule under which a case broke
// an invariant.
type Violation struct {
	// Case names the fault placement (fault.Case.Name).
	Case string `json:"case"`
	// Placement is the full fault placement, for reproducer artifacts.
	Placement fault.Case `json:"placement"`
	// Class is the adversary class, 0 for the fault-free case.
	Class fault.Class `json:"class"`
	// Invariant is the broken assertion (InvFaultFree or
	// InvVerifiedOrEscalated).
	Invariant string `json:"invariant"`
	// Detail describes the failure (the checker's complaint or the
	// unexpected detection).
	Detail string `json:"detail"`
	// Schedule is the shrunk, 1-minimal directive list: replaying it
	// (simnet.NewReplay) reproduces the violation, and removing any
	// single directive makes the run pass.
	Schedule []simnet.Action `json:"schedule"`
	// Full is the complete recorded schedule of the originally failing
	// branch, before shrinking.
	Full []simnet.Action `json:"full_schedule"`
	// Diag is the explorer's classification of the shrunk replay.
	Diag Diagnosis `json:"diagnosis"`
	// Dump is the forensic flight-recorder dump of the shrunk replay,
	// nil when the failing run raised no accusation (silent-wrong
	// branches with all checks weakened).
	Dump *forensic.Report `json:"-"`
}

// CaseStats is the per-case exploration tally.
type CaseStats struct {
	// Case names the fault placement.
	Case string `json:"case"`
	// Branches is the number of complete schedules executed.
	Branches int `json:"branches"`
	// Pruned counts decision points skipped because their canonical
	// state hash was already expanded.
	Pruned int `json:"pruned"`
	// Decisions is the total consulted scheduling decisions across all
	// branches.
	Decisions int `json:"decisions"`
	// MaxDepth is the deepest decision sequence any branch recorded.
	MaxDepth int `json:"max_depth"`
	// Truncated reports the MaxBranches cap tripped before the
	// frontier emptied.
	Truncated bool `json:"truncated,omitempty"`
}

// Result aggregates a sweep.
type Result struct {
	// Dim is the explored cube dimension.
	Dim int `json:"dim"`
	// Cases holds the per-case tallies in sweep order.
	Cases []CaseStats `json:"cases"`
	// Branches/Pruned/Decisions/MaxDepth aggregate over all cases.
	Branches  int `json:"branches"`
	Pruned    int `json:"pruned"`
	Decisions int `json:"decisions"`
	MaxDepth  int `json:"max_depth"`
	// Violations are the counterexamples found (at most one per case —
	// a case stops exploring once falsified).
	Violations []*Violation `json:"violations,omitempty"`
}

// Workload returns the explorer's canonical deterministic input for a
// dim-cube: the reversed sequence, maximally out of order so every
// stage moves keys. Replay rebuilds the identical run from a
// reproducer's Dim alone.
func Workload(dim int) []int64 {
	n := 1 << uint(dim)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(n - i)
	}
	return keys
}

// Run explores every schedule of every case and returns the aggregate
// result. It errors only on harness failures (malformed cases, a
// non-deterministic re-execution); invariant violations are data, not
// errors.
func Run(cfg Config) (*Result, error) {
	x, err := newExplorer(cfg)
	if err != nil {
		return nil, err
	}
	res := &Result{Dim: cfg.Dim}
	for _, c := range x.cases {
		cs, v, err := x.exploreCase(c)
		if err != nil {
			return nil, fmt.Errorf("explore: case %s: %w", c.Name, err)
		}
		res.Cases = append(res.Cases, cs)
		res.Branches += cs.Branches
		res.Pruned += cs.Pruned
		res.Decisions += cs.Decisions
		if cs.MaxDepth > res.MaxDepth {
			res.MaxDepth = cs.MaxDepth
		}
		if v != nil {
			res.Violations = append(res.Violations, v)
		}
	}
	return res, nil
}

// explorer is one sweep's machinery.
type explorer struct {
	cfg   Config
	cases []fault.Case
	keys  []int64
}

func newExplorer(cfg Config) (*explorer, error) {
	if cfg.Dim < 1 {
		return nil, fmt.Errorf("explore: dim %d < 1", cfg.Dim)
	}
	cases := cfg.Cases
	if cases == nil {
		cases = fault.SingleFaultCases(cfg.Dim)
	}
	return &explorer{cfg: cfg, cases: cases, keys: Workload(cfg.Dim)}, nil
}

// enumSched drives one branch of the DFS: decisions below the prefix
// re-take the recorded action (matched positionally by identity —
// deterministic re-execution presents the identical Enabled set), and
// everything beyond resolves canonically (choice 0).
type enumSched struct {
	prefix   []simnet.Action
	mismatch bool
}

func (s *enumSched) Pick(d simnet.Decision) int {
	if d.Point < len(s.prefix) {
		want := s.prefix[d.Point]
		for i, a := range d.Enabled {
			if want.Same(a) {
				return i
			}
		}
		// The replayed prefix no longer matches the enabled set: the
		// system re-executed differently, which breaks the stateless
		// DFS's soundness. Flag it; the explorer aborts the sweep.
		s.mismatch = true
		return 0
	}
	return 0
}

// branchRun is one executed schedule.
type branchRun struct {
	steps []simnet.Step
	diag  Diagnosis
	dump  *forensic.Report
	// verifyErr is the checker's complaint about the output, nil when
	// it verified (meaningless for Detected runs).
	verifyErr error
}

// runOnce executes the case once under the given controlled scheduler
// and classifies the branch.
func (x *explorer) runOnce(c fault.Case, sched simnet.Scheduler) (branchRun, error) {
	flight := forensic.New(0)
	nw, err := simnet.New(simnet.Config{
		Dim:         x.cfg.Dim,
		RecvTimeout: watchdog,
		Sched:       sched,
		Flight:      flight,
	})
	if err != nil {
		return branchRun{}, err
	}
	r, err := fault.Run(nw, flight, x.keys, 1, fault.Set{c}, x.cfg.WeakenChecks)
	if err != nil {
		return branchRun{}, err
	}
	br := branchRun{steps: nw.Steps(), verifyErr: r.Wrong, dump: r.Forensic}
	br.diag = Diagnosis{Verdict: r.Verdict, Detector: r.Detector, Predicate: r.Predicate,
		Accused: r.Accused, Stage: r.Stage, Iter: r.Iter}
	return br, nil
}

// checkInvariant returns the broken invariant's identifier and a
// human-readable detail, or ("", "") when the branch upheld its
// contract.
func (x *explorer) checkInvariant(c fault.Case, br branchRun) (string, string) {
	faultFree := c.Faulty() < 0
	detected := br.diag.Verdict == fault.Detected
	if faultFree && !x.cfg.WeakenChecks {
		switch {
		case detected:
			return InvFaultFree, fmt.Sprintf("fault-free run detected: verdict %v, accused %d (%s at stage %d iter %d)",
				br.diag.Verdict, br.diag.Accused, br.diag.Detector, br.diag.Stage, br.diag.Iter)
		case br.verifyErr != nil:
			return InvFaultFree, fmt.Sprintf("fault-free output failed verification: %v", br.verifyErr)
		}
		return "", ""
	}
	if !detected && br.verifyErr != nil {
		return InvVerifiedOrEscalated, fmt.Sprintf("undetected run with wrong output: %v", br.verifyErr)
	}
	return "", ""
}

// exploreCase runs the stateless DFS over one case's schedule space:
// execute a branch, expand each new decision's alternatives onto the
// frontier, prune decisions whose canonical state hash was already
// expanded. Returns the tally and the first violation found (the case
// stops once falsified — one counterexample suffices).
func (x *explorer) exploreCase(c fault.Case) (CaseStats, *Violation, error) {
	cs := CaseStats{Case: c.Name}
	prune := make(map[uint64]bool)
	frontier := [][]simnet.Action{nil}
	for len(frontier) > 0 {
		if x.cfg.MaxBranches > 0 && cs.Branches >= x.cfg.MaxBranches {
			cs.Truncated = true
			break
		}
		prefix := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]

		sched := &enumSched{prefix: prefix}
		br, err := x.runOnce(c, sched)
		if err != nil {
			return cs, nil, err
		}
		if sched.mismatch {
			return cs, nil, fmt.Errorf("non-deterministic re-execution: prefix of %d actions diverged", len(prefix))
		}
		cs.Branches++
		cs.Decisions += len(br.steps)
		if len(br.steps) > cs.MaxDepth {
			cs.MaxDepth = len(br.steps)
		}

		if inv, detail := x.checkInvariant(c, br); inv != "" {
			v, err := x.falsify(c, br, inv, detail)
			if err != nil {
				return cs, nil, err
			}
			return cs, v, nil
		}

		// Expand: every decision this branch reached beyond its prefix
		// is a new choice point. A decision whose canonical state hash
		// was already expanded contributes nothing new — the subtree
		// below an identical abstract state is identical — so the rest
		// of the branch is pruned.
		for i := len(prefix); i < len(br.steps); i++ {
			st := br.steps[i]
			if x.cfg.MaxDepth > 0 && i >= x.cfg.MaxDepth {
				break
			}
			if prune[st.State] {
				cs.Pruned++
				break
			}
			prune[st.State] = true
			base := simnet.PickedActions(br.steps[:i])
			for alt := 1; alt < len(st.Enabled); alt++ {
				np := make([]simnet.Action, len(base), len(base)+1)
				copy(np, base)
				frontier = append(frontier, append(np, st.Enabled[alt]))
			}
		}
	}
	return cs, nil, nil
}

// falsify packages a failing branch as a Violation: shrink its recorded
// schedule to a 1-minimal directive list that still breaks the same
// invariant, then replay the shrunk schedule once more for the
// diagnosis and forensic dump the artifact ships with.
func (x *explorer) falsify(c fault.Case, br branchRun, inv, detail string) (*Violation, error) {
	full := simnet.PickedActions(br.steps)
	var shrinkErr error
	shrunk := ShrinkSchedule(full, func(cand []simnet.Action) bool {
		if shrinkErr != nil {
			return false
		}
		rr, err := x.runOnce(c, simnet.NewReplay(cand))
		if err != nil {
			shrinkErr = err
			return false
		}
		got, _ := x.checkInvariant(c, rr)
		return got == inv
	})
	if shrinkErr != nil {
		return nil, fmt.Errorf("shrinking: %w", shrinkErr)
	}
	rr, err := x.runOnce(c, simnet.NewReplay(shrunk))
	if err != nil {
		return nil, err
	}
	return &Violation{
		Case:      c.Name,
		Placement: c,
		Class:     c.Class,
		Invariant: inv,
		Detail:    detail,
		Schedule:  shrunk,
		Full:      full,
		Diag:      rr.diag,
		Dump:      rr.dump,
	}, nil
}
