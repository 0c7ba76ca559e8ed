package fault

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
	"repro/internal/sortnr"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Verdict classifies one fault-injection run.
type Verdict int

const (
	// Detected means some honest node signalled an error (fail-stop).
	Detected Verdict = iota + 1
	// CorrectDespiteFault means the run completed with no detection
	// and the output was nonetheless a correct sort (the lie happened
	// to be consistent with the true data).
	CorrectDespiteFault
	// SilentWrong means the run completed undetected with a wrong
	// output — the outcome Theorem 3 forbids for S_FT.
	SilentWrong
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case Detected:
		return "detected"
	case CorrectDespiteFault:
		return "correct-despite-fault"
	case SilentWrong:
		return "SILENT-WRONG"
	default:
		return fmt.Sprintf("verdict(%d)", int(v))
	}
}

// Result is the outcome of one fault-injection run.
type Result struct {
	Verdict Verdict
	// Wrong is the Theorem 1 oracle's complaint about the gathered
	// output, nil when it verified. It makes an undetected run
	// SilentWrong; a Detected run's output is not trusted.
	Wrong error
	// Predicate is the predicate class of the earliest detection
	// evidence that reached the host (when Detected).
	Predicate string
	// Detector is the coverage-matrix column the detection falls in:
	// the predicate name, "absence" when the earliest evidence is a
	// missing message, or "node-local" when a node fail-stopped
	// without its ERROR reaching the host. Empty when not Detected.
	Detector string
	// Accused is the node the earliest detection evidence implicates;
	// -1 when the evidence names no culprit, the detection was
	// node-local, or the run was not Detected.
	Accused int
	// Stage and Iter locate the earliest detection evidence; zero when
	// no host evidence arrived.
	Stage int
	Iter  int
	// Forensic is the flight-recorder dump taken by the accusing node
	// at detection time: the accusation's causal message chain and the
	// per-node event rings. Nil when the run was not Detected or no
	// host evidence arrived (a node-local fail-stop).
	Forensic *forensic.Report
}

// EarliestEvidence picks the canonical detection evidence from a drained
// host mailbox: the earliest in core.CompareEvidence's order (stage
// ascending, iteration descending, node). Host-mailbox drain order
// races between node goroutines, so every consumer of host evidence
// keys off this order rather than arrival order, which is also what
// lets the explorer fold host-drain histories commutatively.
func EarliestEvidence(errs []core.HostError) (core.HostError, bool) {
	if len(errs) == 0 {
		return core.HostError{}, false
	}
	return slices.MinFunc(errs, core.CompareEvidence), true
}

// SortEvidence sorts drained host evidence in place into
// EarliestEvidence's order, so what is listed from it does not depend
// on the drain order.
func SortEvidence(errs []core.HostError) {
	slices.SortStableFunc(errs, core.CompareEvidence)
}

// Classify judges a finished fault-tolerant run. It is Detected when
// any node fail-stopped; otherwise verifyErr, the Theorem 1 oracle's
// complaint about the output (nil when it verified), makes it
// SilentWrong or CorrectDespiteFault. A detection is attributed to the
// earliest host evidence: its predicate names the detector, or
// "absence" for a missing message, or "node-local" when no evidence
// reached the host. It carries the flight dump that evidence
// triggered, matched on (accuser, stage, iter, predicate); when none
// matches (raced rings) the latest dump stands in. A node-local
// detection has no evidence to match and carries no dump.
func Classify(oc *core.Outcome, verifyErr error, flight *forensic.Flight) Result {
	r := Result{Accused: -1, Wrong: verifyErr}
	switch {
	case oc.Detected():
		r.Verdict = Detected
	case verifyErr != nil:
		r.Verdict = SilentWrong
		return r
	default:
		r.Verdict = CorrectDespiteFault
		return r
	}
	he, ok := EarliestEvidence(oc.HostErrors)
	if !ok {
		r.Detector = "node-local"
		return r
	}
	r.Predicate, r.Accused, r.Stage, r.Iter = he.Predicate, he.Accused, he.Stage, he.Iter
	r.Detector = he.Predicate
	if he.Kind == core.KindAbsence {
		r.Detector = "absence"
	}
	reports := flight.Reports()
	for _, rep := range reports {
		if int(rep.Accuser) == he.Node && int(rep.Stage) == he.Stage &&
			int(rep.Iter) == he.Iter && rep.Predicate == he.Predicate {
			r.Forensic = rep
			return r
		}
	}
	if len(reports) > 0 {
		r.Forensic = reports[len(reports)-1]
	}
	return r
}

// Inject runs S_FT with the placement s armed on a fresh simnet cube
// of dimension dim, m keys per node, and judges the run (Run). The
// timeout bounds how long absence detection waits; keep it short (tens
// of milliseconds), since a crashed or silent node is found only when
// a partner's receive times out.
func Inject(dim int, keys []int64, m int, s Set, timeout time.Duration) (Result, error) {
	flight := forensic.New(0)
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: timeout, Flight: flight})
	if err != nil {
		return Result{}, err
	}
	return Run(nw, flight, keys, m, s, false)
}

// Run runs S_FT on nw, m keys per node (keys[id*m:(id+1)*m] is node
// id's block; S_FT proper is m = 1), with every case of s armed, and
// judges the run: it drains the host evidence, checks the gathered
// output with the Theorem 1 oracle and calls Classify. A crashed node
// runs no program. flight is the recorder nw was configured with, so
// an accusation's dump carries its causal chain. weaken skips every
// node's own checks, honest nodes' too: the interleaving explorer's
// hook for showing that without them a fault corrupts silently. Run is
// the one place outside core.RunBlocks that builds and runs an armed
// S_FT program set.
func Run(nw transport.Network, flight *forensic.Flight, keys []int64, m int, s Set, weaken bool) (Result, error) {
	n := nw.Topology().Nodes()
	if err := s.Validate(n); err != nil {
		return Result{}, err
	}
	if m < 1 || len(keys) != n*m {
		return Result{}, fmt.Errorf("fault: %d keys for %d nodes of %d keys each", len(keys), n, m)
	}
	opts := s.Options(n)
	out := make([]int64, n*m)
	progs := make([]node.Program, n)
	for id := range progs {
		opts[id].SkipChecks = opts[id].SkipChecks || weaken
		opts[id].Forensic = flight.Node(id)
		progs[id] = core.NodeProgram(keys[id*m:(id+1)*m], out[id*m:(id+1)*m], opts[id])
	}
	for _, c := range s {
		if c.Crashed != nil {
			progs[*c.Crashed] = nil // fail-stop from time zero
		}
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return Result{}, err
	}
	oc := &core.Outcome{Sorted: out, Result: res, HostErrors: core.DrainHostErrors(nw)}
	return Classify(oc, checker.Verify(keys, out, true), flight), nil
}

// InjectSNR runs the unreliable S_NR under the same fault spec, for
// the contrast experiment: S_NR has no detection machinery, so lies
// become silent corruption. It sends the host no evidence, so Classify
// finds any detection (a timeout) node-local.
func InjectSNR(dim int, keys []int64, spec Spec, timeout time.Duration) (Result, error) {
	n := 1 << uint(dim)
	if err := spec.Validate(n); err != nil {
		return Result{}, err
	}
	if len(keys) != n {
		return Result{}, fmt.Errorf("fault: %d keys for %d nodes", len(keys), n)
	}
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: timeout})
	if err != nil {
		return Result{}, err
	}
	out := make([]int64, n)
	progs := make([]node.Program, n)
	for id := 0; id < n; id++ {
		o := sortnr.Options{}
		if id == spec.Node {
			o.Tamper = snrTamper(spec)
		}
		progs[id] = sortnr.NodeProgram(keys[id:id+1], out[id:id+1], o)
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return Result{}, err
	}
	return Classify(&core.Outcome{Sorted: out, Result: res}, checker.Verify(keys, out, true), nil), nil
}

// snrTamper adapts a Spec to S_NR's plain key messages: value lies and
// silence keep their meaning; view-level strategies (which have no
// view to attack in S_NR) degenerate to key lies.
func snrTamper(spec Spec) func(m *wire.Message) *wire.Message {
	return func(m *wire.Message) *wire.Message {
		if int(m.Stage) < spec.ActivateStage || m.Kind != wire.KindExchange {
			return m
		}
		if spec.Strategy == Silence {
			return nil
		}
		p, err := wire.DecodeExchange(m.Payload)
		if err != nil || len(p.Keys) == 0 {
			return m
		}
		switch spec.Strategy {
		case WrongCompare:
			if len(p.Keys) >= 2 {
				p.Keys[0], p.Keys[1] = p.Keys[1], p.Keys[0]
			} else {
				p.Keys[0] = spec.LieValue
			}
		default:
			for i := range p.Keys {
				p.Keys[i] = spec.LieValue
			}
		}
		return withPayload(m, wire.EncodeExchange(p))
	}
}

// Coverage sweeps the given strategies over every node of the cube,
// m keys per node, one Byzantine node per run, and returns one Result
// per (strategy, node) pair, in (strategy, node) order.
func Coverage(dim int, keys []int64, m int, strategies []Strategy, lie int64, timeout time.Duration) ([]Result, error) {
	n := 1 << uint(dim)
	sets := make([]Set, 0, len(strategies)*n)
	for _, st := range strategies {
		for id := 0; id < n; id++ {
			sets = append(sets, Set{{Msg: &Spec{Node: id, Strategy: st, ActivateStage: 1, LieValue: lie}}})
		}
	}
	return injectAll(dim, keys, m, sets, timeout)
}

// injectAll runs Inject over every placement, each on its own network
// and at most 16 at a time, and returns one Result per placement in
// order.
func injectAll(dim int, keys []int64, m int, sets []Set, timeout time.Duration) ([]Result, error) {
	out := make([]Result, len(sets))
	errs := make([]error, len(sets))
	sem := make(chan struct{}, 16) // bound concurrent simulations
	var wg sync.WaitGroup
	for i, s := range sets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			out[i], errs[i] = Inject(dim, keys, m, s, timeout)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fault: placement %d: %w", i, err)
		}
	}
	return out, nil
}

// Summary tallies verdicts.
type Summary struct {
	Total               int
	Detected            int
	CorrectDespiteFault int
	SilentWrong         int
}

// Summarize folds results into a Summary.
func Summarize(results []Result) Summary {
	var s Summary
	for _, r := range results {
		s.Total++
		switch r.Verdict {
		case Detected:
			s.Detected++
		case CorrectDespiteFault:
			s.CorrectDespiteFault++
		case SilentWrong:
			s.SilentWrong++
		}
	}
	return s
}
