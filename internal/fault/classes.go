package fault

import (
	"fmt"

	"repro/internal/obs"
)

// Class partitions the adversary menu by which part of the machine
// lies. The paper's fault model (and PRs through 5) covers the first
// two; comparison and memory faults are the application-level axis the
// detection-coverage matrix measures: the Φ predicates claim to catch
// violations regardless of cause, and these classes produce wrong
// state without a single tampered message.
type Class int

const (
	// ClassMessage: Byzantine messages — lies on the wire (key, view,
	// header, and framing attacks).
	ClassMessage Class = iota + 1
	// ClassAbsence: expected messages never arrive (fail-stop silence,
	// crashes, dead links).
	ClassAbsence
	// ClassComparison: the node's comparator lies (Geissmann et al.);
	// messages are honest reports of wrongly-routed keys.
	ClassComparison
	// ClassMemory: resident cells corrupt between accesses
	// (Kopelowitz & Talmon); messages are honest reports of corrupted
	// state.
	ClassMemory
)

var classNames = map[Class]string{
	ClassMessage:    "message",
	ClassAbsence:    "absence",
	ClassComparison: "comparison",
	ClassMemory:     "memory",
}

// String returns the class name.
func (c Class) String() string {
	if n, ok := classNames[c]; ok {
		return n
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// AllClasses lists every adversary class, in matrix row order.
func AllClasses() []Class {
	return []Class{ClassMessage, ClassAbsence, ClassComparison, ClassMemory}
}

// Obs maps the class to its observability counter index.
func (c Class) Obs() obs.FaultClass {
	switch c {
	case ClassAbsence:
		return obs.FaultAbsence
	case ClassComparison:
		return obs.FaultComparison
	case ClassMemory:
		return obs.FaultMemory
	default:
		return obs.FaultMessage
	}
}

// Class reports which adversary class a message strategy belongs to:
// Silence is observed as absence, everything else as a Byzantine
// message.
func (s Strategy) Class() Class {
	if s == Silence {
		return ClassAbsence
	}
	return ClassMessage
}
