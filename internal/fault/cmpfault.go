package fault

import (
	"fmt"
	"math/rand"
)

// CmpMode enumerates faulty-comparison behaviours, after Geissmann et
// al. (arXiv:2508.19785): a comparator that lies, persistently for a
// random subset of key pairs or transiently at a rate. Unlike the
// message strategies, a comparison fault never touches a message — the
// faulty node runs the schedule faithfully on wrong answers, so
// detection must come from the application-level predicates.
type CmpMode int

const (
	// CmpPersistent lies deterministically for a fixed pseudo-random
	// subset of unordered key pairs (each pair is faulty with
	// probability Rate, and a faulty pair lies on every evaluation) —
	// Geissmann et al.'s persistent comparison faults.
	CmpPersistent CmpMode = iota + 1
	// CmpTransient lies independently on each comparison with
	// probability Rate — transient comparison faults.
	CmpTransient
)

var cmpModeNames = map[CmpMode]string{
	CmpPersistent: "cmp-persistent",
	CmpTransient:  "cmp-transient",
}

// String returns the mode's kebab-case name.
func (m CmpMode) String() string {
	if n, ok := cmpModeNames[m]; ok {
		return n
	}
	return fmt.Sprintf("cmpmode(%d)", int(m))
}

// AllCmpModes lists every comparison-fault mode, for sweeps.
func AllCmpModes() []CmpMode { return []CmpMode{CmpPersistent, CmpTransient} }

// CmpSpec describes one injected comparison fault.
type CmpSpec struct {
	// Node is the faulty node's label.
	Node int
	// Mode is the lying discipline.
	Mode CmpMode
	// Rate is the lying probability: per unordered key pair for
	// CmpPersistent, per comparison for CmpTransient. 1 lies always.
	Rate float64
	// Seed makes the lie pattern deterministic.
	Seed int64
	// ActivateStage is the first stage at which the comparator lies
	// (>= 1 per environmental assumption 5; the initial local sort and
	// stage 0 run honestly).
	ActivateStage int
}

// Validate rejects malformed specs.
func (s CmpSpec) Validate(nodes int) error {
	if s.Node < 0 || s.Node >= nodes {
		return fmt.Errorf("fault: node %d outside [0,%d)", s.Node, nodes)
	}
	if _, ok := cmpModeNames[s.Mode]; !ok {
		return fmt.Errorf("fault: unknown comparison mode %d", int(s.Mode))
	}
	if s.Rate < 0 || s.Rate > 1 {
		return fmt.Errorf("fault: comparison lie rate %v outside [0,1]", s.Rate)
	}
	if s.ActivateStage < 1 {
		return fmt.Errorf("fault: activate stage %d violates assumption 5 (must be >= 1)", s.ActivateStage)
	}
	return nil
}

// Comparator builds the stage-aware lying comparator implementing the
// spec, suitable for core.Options.Compare at the faulty node. It
// reports whether a orders at or before b; a lie is the negation of
// the honest a <= b. Deterministic given Seed; for
// CmpTransient the stream is per-comparator state, so build a fresh one
// per run.
func (s CmpSpec) Comparator() func(stage int, a, b int64) bool {
	switch s.Mode {
	case CmpPersistent:
		return func(stage int, a, b int64) bool {
			honest := a <= b
			if stage < s.ActivateStage || !pairLies(s.Seed, a, b, s.Rate) {
				return honest
			}
			return !honest
		}
	case CmpTransient:
		rng := rand.New(rand.NewSource(s.Seed))
		return func(stage int, a, b int64) bool {
			honest := a <= b
			if stage < s.ActivateStage {
				return honest
			}
			// Draw unconditionally so the lie stream depends only on
			// how many post-activation comparisons ran.
			if rng.Float64() >= s.Rate {
				return honest
			}
			return !honest
		}
	default:
		return func(_ int, a, b int64) bool { return a <= b }
	}
}

// pairLies decides, deterministically in (seed, {a,b}), whether the
// unordered pair is one of the persistently lying pairs. It hashes the
// ordered pair with a splitmix64-style mixer and thresholds the result
// against rate, so the same pair lies (or not) on every comparison, in
// either argument order.
func pairLies(seed, a, b int64, rate float64) bool {
	if rate <= 0 {
		return false
	}
	if b < a {
		a, b = b, a
	}
	h := uint64(seed) ^ 0x9E3779B97F4A7C15
	h ^= uint64(a) * 0xBF58476D1CE4E5B9
	h = (h ^ (h >> 30)) * 0xBF58476D1CE4E5B9
	h ^= uint64(b) * 0x94D049BB133111EB
	h = (h ^ (h >> 27)) * 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11)/float64(1<<53) < rate
}
