package core

import (
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

// Outcome aggregates an S_FT run.
type Outcome struct {
	// Sorted is the gathered output, out[id] = node id's final key.
	// Trust it only when Detected() is false.
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
	return RunWithOptions(nw, keys, nil)
}

// RunWithOptions executes S_FT with per-node options (fault injection,
// tracing). opts may be nil (all honest) or have exactly one entry per
// node.
func RunWithOptions(nw transport.Network, keys []int64, opts []Options) (*Outcome, error) {
	n := nw.Topology().Nodes()
	if len(keys) != n {
		return nil, fmt.Errorf("core: %d keys for %d nodes", len(keys), n)
	}
	if opts == nil {
		opts = make([]Options, n)
	}
	if len(opts) != n {
		return nil, fmt.Errorf("core: %d option sets for %d nodes", len(opts), n)
	}
	out := make([]int64, n)
	progs := make([]node.Program, n)
	for id := 0; id < n; id++ {
		progs[id] = NodeProgram(keys[id], &out[id], opts[id])
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return &Outcome{Sorted: out, Result: res, HostErrors: DrainHostErrors(nw)}, nil
}

// DrainHostErrors empties the host mailbox of ERROR signals after the
// nodes have terminated. Exported for the other runners (blocksort,
// the interleaving explorer) that need the standard evidence decode.
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
