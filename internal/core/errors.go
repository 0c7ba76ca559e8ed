package core

import (
	"errors"
	"fmt"
)

// Sentinel errors classify which component of the constraint predicate
// Φ = (Φ_P, Φ_F, Φ_C) detected faulty behaviour, plus a fourth class
// for violations of the message protocol itself (wrong kind, wrong
// step labels, malformed payloads — all detectable faults under the
// paper's Byzantine model).
var (
	// ErrProgress is a Φ_P violation: an assembled stage sequence is
	// not monotonic/bitonic in the direction the schedule requires.
	ErrProgress = errors.New("core: progress predicate violated")
	// ErrFeasibility is a Φ_F violation: a stage sequence is not a
	// permutation of the previous verified stage sequence.
	ErrFeasibility = errors.New("core: feasibility predicate violated")
	// ErrConsistency is a Φ_C violation: two copies of the same
	// logical value, relayed along vertex-disjoint paths, disagree —
	// or a sender claimed knowledge it cannot legitimately have.
	ErrConsistency = errors.New("core: consistency predicate violated")
	// ErrProtocol is a violation of the exchange protocol itself.
	ErrProtocol = errors.New("core: protocol violated")
)

// ErrorKind classifies the *evidence* behind a detection, orthogonally
// to which predicate fired: a concrete bad value or header from an
// identifiable sender, the absence of an expected message, or an
// unattributed shape failure over an assembled sequence. It rides the
// ERROR signal so diagnosis (internal/diagnose) keys off structure
// instead of parsing human-readable detail text.
type ErrorKind uint8

const (
	// KindValue: the evidence is a concrete bad value, view, or header
	// received from an identifiable sender.
	KindValue ErrorKind = iota
	// KindAbsence: an expected message never arrived
	// (transport.ErrAbsent). Weak evidence — once one honest node
	// fail-stops, its silent links accuse *it* in cascades.
	KindAbsence
	// KindShape: a shape or permutation check over an assembled
	// sequence failed without implicating a specific sender.
	KindShape
)

// String returns the kind's wire-stable name.
func (k ErrorKind) String() string {
	switch k {
	case KindValue:
		return "value"
	case KindAbsence:
		return "absence"
	case KindShape:
		return "shape"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// PredicateError carries the full diagnostic a node ships to the host
// when an executable assertion fires.
type PredicateError struct {
	// Node is the detecting node's label.
	Node int
	// Stage and Iter locate the (i, j) step at which detection happened.
	// Iter is -1 for stage-end checks.
	Stage int
	Iter  int
	// Kind is the violated predicate sentinel (ErrProgress, ...).
	Kind error
	// Evidence classifies what fired the assertion (value, absence,
	// shape).
	Evidence ErrorKind
	// Accused is the node whose message triggered the assertion, or
	// -1 when the evidence does not implicate a specific sender
	// (shape/permutation failures over an assembled sequence).
	// Diagnosis heuristics in internal/diagnose rank accusations to
	// localize the fault.
	Accused int
	// Detail is a human-readable description of the evidence.
	Detail string
}

// Error implements the error interface.
func (e *PredicateError) Error() string {
	return fmt.Sprintf("node %d stage %d iter %d: %v: %s", e.Node, e.Stage, e.Iter, e.Kind, e.Detail)
}

// Unwrap exposes the predicate sentinel for errors.Is.
func (e *PredicateError) Unwrap() error { return e.Kind }

// PredicateName returns the wire name of the predicate class for the
// host ERROR payload.
func PredicateName(kind error) string {
	switch {
	case errors.Is(kind, ErrProgress):
		return "progress"
	case errors.Is(kind, ErrFeasibility):
		return "feasibility"
	case errors.Is(kind, ErrConsistency):
		return "consistency"
	default:
		return "protocol"
	}
}
