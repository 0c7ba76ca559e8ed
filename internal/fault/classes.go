package fault

import (
	"fmt"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
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

// --- injection drivers -------------------------------------------------------

// injectWith runs the fault-tolerant sort on keys, m keys per node
// (S_FT is m = 1), with the given options at one faulty node, and
// classifies the outcome into res (whose Spec/Class/Label the caller
// pre-fills). Every single-fault injector (message, comparison,
// memory) runs through it.
func injectWith(dim int, keys []int64, m, faulty int, o core.Options, timeout time.Duration, res Result) (Result, error) {
	n := 1 << uint(dim)
	if m < 1 || len(keys) != n*m {
		return Result{}, fmt.Errorf("fault: %d keys for %d nodes of %d keys each", len(keys), n, m)
	}
	flight := forensic.New(0)
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: timeout, Flight: flight})
	if err != nil {
		return Result{}, err
	}
	opts := make([]core.Options, n)
	opts[faulty] = o
	for i := range opts {
		opts[i].Forensic = flight.Node(i)
	}
	oc, err := core.RunBlocks(nw, keys, m, opts)
	if err != nil {
		return Result{}, err
	}
	if oc.Detected() {
		res.classify(true, oc.HostErrors)
		res.attachForensic(flight, oc.HostErrors)
		return res, nil
	}
	if cerr := checker.Verify(keys, oc.Sorted, true); cerr != nil {
		res.Verdict = SilentWrong
	} else {
		res.Verdict = CorrectDespiteFault
	}
	return res, nil
}

// InjectCmpSFT runs the fault-tolerant sort (m keys per node) with one
// node merge-splitting through the spec's lying comparator (the node's
// own checks off — the faulty comparator would pass them on its own
// wrong view of order anyway) and classifies the outcome.
func InjectCmpSFT(dim int, keys []int64, m int, spec CmpSpec, timeout time.Duration) (Result, error) {
	if err := spec.Validate(1 << uint(dim)); err != nil {
		return Result{}, err
	}
	o := core.Options{SkipChecks: true, Compare: spec.Comparator()}
	res := Result{Class: ClassComparison, Label: spec.Mode.String()}
	return injectWith(dim, keys, m, spec.Node, o, timeout, res)
}

// InjectMemSFT runs the fault-tolerant sort (m keys per node) with one
// node's resident block corrupting at stage boundaries per the spec
// and classifies the outcome.
func InjectMemSFT(dim int, keys []int64, m int, spec MemSpec, timeout time.Duration) (Result, error) {
	if err := spec.Validate(1 << uint(dim)); err != nil {
		return Result{}, err
	}
	o := core.Options{SkipChecks: true, CorruptMemory: spec.Corruptor()}
	res := Result{Class: ClassMemory, Label: spec.Mode.String()}
	return injectWith(dim, keys, m, spec.Node, o, timeout, res)
}
