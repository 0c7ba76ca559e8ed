package fault

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
	"repro/internal/sortnr"
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

// Result is the outcome of one injected-fault run.
type Result struct {
	// Spec is the message-fault spec, zero for comparison and memory
	// faults (which are described by CmpSpec / MemSpec instead).
	Spec    Spec
	Verdict Verdict
	// Class is the adversary class injected (message, absence,
	// comparison, memory).
	Class Class
	// Label names the concrete strategy or mode within the class,
	// e.g. "key-lie" or "mem-stuck".
	Label string
	// Predicate is the predicate class of the earliest detection
	// evidence that reached the host (when Detected).
	Predicate string
	// Detector is the coverage-matrix column the detection falls in:
	// the predicate name, "absence" when the earliest evidence is a
	// missing message, or "node-local" when a node fail-stopped
	// without its ERROR reaching the host. Empty when not Detected.
	Detector string
	// Accused is the node the earliest detection evidence implicates;
	// -1 when the evidence names no culprit or the detection was
	// node-local. Meaningful only when Verdict is Detected.
	Accused int
	// Forensic is the flight-recorder dump taken by the accusing node
	// at detection time: the accusation's causal message chain and the
	// per-node event rings. Nil when the run was not Detected (or the
	// detection never produced an accusation, e.g. a node-local
	// fail-stop with no evidence record).
	Forensic *forensic.Report
}

// EarliestEvidence picks the canonical detection evidence from a drained
// host mailbox: the earliest by (stage, iter, node). Every consumer of
// host evidence keys off this order rather than arrival order, which is
// what lets the explorer fold host-drain histories commutatively.
func EarliestEvidence(errs []core.HostError) (core.HostError, bool) {
	return earliestHostError(errs)
}

// earliestHostError picks the detection evidence deterministically:
// host-mailbox drain order races between node goroutines, so the
// matrix keys off the earliest (stage, iter, node) evidence instead of
// arrival order.
func earliestHostError(errs []core.HostError) (core.HostError, bool) {
	if len(errs) == 0 {
		return core.HostError{}, false
	}
	best := errs[0]
	for _, he := range errs[1:] {
		if he.Stage < best.Stage ||
			(he.Stage == best.Stage && he.Iter < best.Iter) ||
			(he.Stage == best.Stage && he.Iter == best.Iter && he.Node < best.Node) {
			best = he
		}
	}
	return best, true
}

// classify fills a Result's detection fields from a finished run's
// host evidence.
func (r *Result) classify(detected bool, errs []core.HostError) {
	r.Accused = -1
	if !detected {
		return
	}
	r.Verdict = Detected
	he, ok := earliestHostError(errs)
	if !ok {
		r.Detector = "node-local"
		return
	}
	r.Predicate = he.Predicate
	r.Accused = he.Accused
	if he.Kind == core.KindAbsence {
		r.Detector = "absence"
	} else {
		r.Detector = he.Predicate
	}
}

// attachForensic pairs a classified Detected result with the flight
// dump its earliest host evidence triggered, matching on the
// (accuser, stage, iter, predicate) coordinate; when the earliest
// evidence produced no dump (raced rings, node-local detection) the
// latest dump stands in, and a run with no dumps leaves Forensic nil.
func (r *Result) attachForensic(flight *forensic.Flight, errs []core.HostError) {
	if r.Verdict != Detected || flight == nil {
		return
	}
	reports := flight.Reports()
	if len(reports) == 0 {
		return
	}
	if he, ok := earliestHostError(errs); ok {
		for _, rep := range reports {
			if int(rep.Accuser) == he.Node && int(rep.Stage) == he.Stage &&
				int(rep.Iter) == he.Iter && rep.Predicate == he.Predicate {
				r.Forensic = rep
				return
			}
		}
	}
	r.Forensic = reports[len(reports)-1]
}

// InjectSFT runs the fault-tolerant sort on a fresh network, m keys
// per node (keys[id*m:(id+1)*m] is node id's block; S_FT proper is
// m = 1), with one Byzantine processor per the spec and classifies the
// outcome. The timeout bounds how long absence detection waits; keep
// it short (tens of milliseconds) since fail-stop cascades serialize
// on it.
func InjectSFT(dim int, keys []int64, m int, spec Spec, timeout time.Duration) (Result, error) {
	if err := spec.Validate(1 << uint(dim)); err != nil {
		return Result{}, err
	}
	o := core.Options{SkipChecks: true, Tamper: spec.Tamper()}
	res := Result{Spec: spec, Class: spec.Strategy.Class(), Label: spec.Strategy.String()}
	return injectWith(dim, keys, m, spec.Node, o, timeout, res)
}

// injectWithTamper runs S_FT with an arbitrary tamper hook at one node
// and classifies the outcome.
func injectWithTamper(dim int, keys []int64, faulty int, tamper func(*wire.Message) *wire.Message, timeout time.Duration) (Verdict, error) {
	n := 1 << uint(dim)
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: timeout})
	if err != nil {
		return 0, err
	}
	opts := make([]core.Options, n)
	opts[faulty] = core.Options{SkipChecks: true, Tamper: tamper}
	oc, err := core.RunWithOptions(nw, keys, opts)
	if err != nil {
		return 0, err
	}
	switch {
	case oc.Detected():
		return Detected, nil
	case checker.Verify(keys, oc.Sorted, true) != nil:
		return SilentWrong, nil
	default:
		return CorrectDespiteFault, nil
	}
}

// InjectSNR runs the unreliable S_NR under the same fault spec, for
// the contrast experiment: S_NR has no detection machinery, so lies
// become silent corruption.
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
		progs[id] = sortnr.NodeProgram(keys[id], &out[id], o)
	}
	runRes, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return Result{}, err
	}
	res := Result{Spec: spec, Class: spec.Strategy.Class(), Label: spec.Strategy.String()}
	if runRes.AnyErr() != nil {
		// S_NR can only "detect" absence (timeouts), not value lies.
		res.Verdict = Detected
		res.Detector = "node-local"
		return res, nil
	}
	if cerr := checker.Verify(keys, out, true); cerr != nil {
		res.Verdict = SilentWrong
	} else {
		res.Verdict = CorrectDespiteFault
	}
	return res, nil
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
// m keys per node, and returns one Result per (strategy, node) pair,
// in (strategy, node) order. Runs use independent networks and execute
// concurrently.
func Coverage(dim int, keys []int64, m int, strategies []Strategy, lie int64, timeout time.Duration) ([]Result, error) {
	n := 1 << uint(dim)
	type job struct{ strat, node int }
	jobs := make([]job, 0, len(strategies)*n)
	for si := range strategies {
		for id := 0; id < n; id++ {
			jobs = append(jobs, job{strat: si, node: id})
		}
	}
	out := make([]Result, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, 8) // bound concurrent simulations
	var wg sync.WaitGroup
	for i, jb := range jobs {
		wg.Add(1)
		go func(i int, jb job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			spec := Spec{Node: jb.node, Strategy: strategies[jb.strat], ActivateStage: 1, LieValue: lie}
			r, err := InjectSFT(dim, keys, m, spec, timeout)
			if err != nil {
				errs[i] = fmt.Errorf("fault: coverage %v node %d: %w", spec.Strategy, jb.node, err)
				return
			}
			out[i] = r
		}(i, jb)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// InjectCrash runs S_FT with one node crashed outright (it never
// executes a single protocol step — fail-stop from time zero). Its
// partners observe message absence, which environmental assumption 4
// makes detectable; the run must never complete with a wrong output.
func InjectCrash(dim int, keys []int64, crashed int, timeout time.Duration) (Result, error) {
	n := 1 << uint(dim)
	if len(keys) != n {
		return Result{}, fmt.Errorf("fault: %d keys for %d nodes", len(keys), n)
	}
	if crashed < 0 || crashed >= n {
		return Result{}, fmt.Errorf("fault: crashed node %d outside [0,%d)", crashed, n)
	}
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: timeout})
	if err != nil {
		return Result{}, err
	}
	out := make([]int64, n)
	progs := make([]node.Program, n)
	for id := 0; id < n; id++ {
		if id == crashed {
			continue // nil program: the node is dead
		}
		progs[id] = core.NodeProgram(keys[id], &out[id], core.Options{})
	}
	runRes, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Spec:  Spec{Node: crashed, Strategy: Silence, ActivateStage: 1},
		Class: ClassAbsence, Label: Silence.String(),
	}
	if runRes.AnyErr() != nil {
		res.Verdict = Detected
		res.Detector = "node-local"
		return res, nil
	}
	// With a dead node the gather can never complete, so reaching here
	// would mean the protocol terminated without it — classify by
	// output correctness to surface any such bug.
	if cerr := checker.Verify(keys, out, true); cerr != nil {
		res.Verdict = SilentWrong
	} else {
		res.Verdict = CorrectDespiteFault
	}
	return res, nil
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
