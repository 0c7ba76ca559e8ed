package core

import (
	"cmp"
	"fmt"

	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// HostError is one diagnostic ERROR signal drained from the host
// mailbox after a run.
type HostError struct {
	// Node is the signalling node.
	Node int
	// Stage and Iter locate the detection point.
	Stage int
	Iter  int
	// Predicate names the violated predicate class.
	Predicate string
	// Kind is the structured evidence class (value, absence, shape);
	// diagnosis keys off it, Detail stays human-readable only.
	Kind ErrorKind
	// Accused is the node the evidence implicates, -1 when none.
	Accused int
	// Detail describes the evidence.
	Detail string
}

// ComparePoints orders two detection points, each a (stage,
// iteration) pair, by when they arise in a run: stage ascending, then
// iteration descending, since a stage's iterations count down
// (j = s … 0) and its boundary checks report iteration -1 after them.
func ComparePoints(stage1, iter1, stage2, iter2 int) int {
	return cmp.Or(cmp.Compare(stage1, stage2), cmp.Compare(iter2, iter1))
}

// CompareEvidence orders host evidence by its detection point
// (ComparePoints), then by signalling node: the one order in which
// fault.EarliestEvidence and diagnose.Rank read evidence, whatever
// order the host mailbox drained it in.
func CompareEvidence(a, b HostError) int {
	return cmp.Or(ComparePoints(a.Stage, a.Iter, b.Stage, b.Iter), cmp.Compare(a.Node, b.Node))
}

// Outcome aggregates a run.
type Outcome struct {
	// Sorted is the gathered output: the node-order concatenation of
	// the nodes' final blocks, node id's m keys at Sorted[id*m:(id+1)*m]
	// (out[id] = node id's final key when m = 1). Trust it only when
	// Detected() is false.
	Sorted []int64
	// Result carries per-node errors, virtual clocks, and traffic.
	Result *node.Result
	// HostErrors are the ERROR signals the host received.
	HostErrors []HostError
}

// Detected reports whether any fault was detected: an ERROR reached
// the host or any node fail-stopped. The fail-stop guarantee of
// Theorem 3 is: if Detected() is false, Sorted is a correct ascending
// sort of the input.
func (o *Outcome) Detected() bool {
	if len(o.HostErrors) > 0 {
		return true
	}
	return o.Result.AnyErr() != nil
}

// Run executes S_FT with all-honest nodes: keys[id] is node id's
// initial key.
func Run(nw transport.Network, keys []int64) (*Outcome, error) {
	return RunBlocks(nw, keys, 1, nil)
}

// RunWithOptions executes S_FT with per-node options (fault injection,
// tracing). opts may be nil (all honest) or have exactly one entry per
// node.
func RunWithOptions(nw transport.Network, keys []int64, opts []Options) (*Outcome, error) {
	return RunBlocks(nw, keys, 1, opts)
}

// RunBlocks executes the fault-tolerant sort with m keys per node:
// keys[id*m:(id+1)*m] is node id's initial block. opts may be nil (all
// honest) or have exactly one entry per node. On a network that keeps
// Runners, each node runs in its label's Runner.
func RunBlocks(nw transport.Network, keys []int64, m int, opts []Options) (*Outcome, error) {
	n := nw.Topology().Nodes()
	if m < 1 || len(keys) != n*m {
		return nil, fmt.Errorf("core: %d keys for %d nodes of %d keys each", len(keys), n, m)
	}
	if opts != nil && len(opts) != n {
		return nil, fmt.Errorf("core: %d option sets for %d nodes", len(opts), n)
	}
	kept, _ := nw.(Runners)
	out := make([]int64, n*m)
	progs := make([]node.Program, n)
	for id := range progs {
		var o Options
		if opts != nil {
			o = opts[id]
		}
		var r *runner
		if kept != nil {
			r = &kept.Runner(id).r
		} else {
			r = new(runner)
		}
		progs[id] = r.program(keys[id*m:(id+1)*m], out[id*m:(id+1)*m], o)
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Outcome{Sorted: out, Result: res, HostErrors: DrainHostErrors(nw)}, nil
}

// DrainHostErrors empties the host mailbox of ERROR signals after the
// nodes have terminated. Exported for fault.Run, which builds its own
// program set (a crashed node runs none) and needs the standard
// evidence decode.
func DrainHostErrors(nw transport.Network) []HostError {
	h := nw.Host()
	var out []HostError
	for {
		m, ok, err := h.TryRecv()
		if err != nil || !ok {
			return out
		}
		if m.Kind != wire.KindError {
			continue
		}
		p, err := wire.DecodeError(m.Payload)
		if err != nil {
			continue
		}
		out = append(out, HostError{
			Node:      int(m.From),
			Stage:     int(m.Stage),
			Iter:      int(m.Iter),
			Predicate: p.Predicate,
			Kind:      ErrorKind(p.Kind),
			Accused:   int(p.Accused),
			Detail:    p.Detail,
		})
	}
}
