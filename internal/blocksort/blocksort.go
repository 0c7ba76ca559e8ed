// Package blocksort implements the bitonic block sort/merge of the
// paper's Section 5: each of the N nodes holds a block of m keys
// instead of one. The message-exchange structure of the bitonic
// schedule is preserved; each compare-exchange becomes a merge-split
// of 2m keys, adding O(m + m log m) local work per step, and each of
// the constraint predicates Φ scales by m. Figure 8 compares this
// fault-tolerant block sort against host sorting.
//
// Both the unreliable (NR) and fault-tolerant (FT) variants are
// provided. The FT variant reuses the core package's predicates and
// vect_mask knowledge schedule, with views carrying whole blocks.
package blocksort

import (
	"fmt"

	"repro/internal/bitonic"
	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Options tunes one node's program; the zero value is honest.
type Options struct {
	// Tamper intercepts outgoing messages (Byzantine processor); nil
	// for honest nodes. Returning nil drops the message.
	Tamper func(m *wire.Message) *wire.Message
	// Compare, when non-nil, replaces the node's merge-split
	// comparator: Compare(stage, a, b) reports whether a orders at or
	// before b. A lying comparator models faulty comparisons — the
	// merge-split misroutes keys without any message being tampered.
	// Nil is the honest machine comparator.
	Compare func(stage int, a, b int64) bool
	// CorruptMemory, when non-nil, is invoked at every stage boundary
	// (stages >= 1 and before the final verification round, with the
	// cube dimension as the stage label) on the node's resident block,
	// modelling memory cells that corrupt between accesses. The hook
	// mutates the block in place.
	CorruptMemory func(stage int, keys []int64)
	// SkipChecks disables the node's own assertions (used together
	// with Tamper for malicious nodes).
	SkipChecks bool
	// Obs, when non-nil, receives stage/round spans, Φ evaluations,
	// merge-split compare counts, and accusations. Recording reads the
	// endpoint clock but never charges it; all Observer methods are
	// nil-safe and allocation-free.
	Obs *obs.Observer
	// Forensic, when non-nil, is this node's flight recorder (mirrors
	// core.Options.Forensic): predicate evaluations, merge-splits, and
	// accusations land in the same ring as the transport's send/recv
	// events, and a predicate failure triggers a forensic dump. Use a
	// recorder from the Flight the transport was configured with.
	Forensic *forensic.Recorder
	// Parallelism caps the worker count for the data-parallel
	// merge-split and local-sort paths (mirrors core.Options): <= 0
	// means GOMAXPROCS. Worker count never changes outputs or charged
	// comparison counts — the parallel merges are bit-identical to
	// their sequential counterparts — only wall-clock time.
	Parallelism int
}

// RunNR executes the unreliable block bitonic sort: blocks[id] is node
// id's initial block (all equal length). The returned blocks form the
// globally sorted ascending sequence when concatenated in node order.
func RunNR(nw transport.Network, blocks [][]int64) ([][]int64, *node.Result, error) {
	if err := validateBlocks(nw, blocks); err != nil {
		return nil, nil, err
	}
	n := nw.Topology().Nodes()
	out := make([][]int64, n)
	progs := make([]node.Program, n)
	for id := 0; id < n; id++ {
		progs[id] = nodeProgramNR(blocks[id], &out[id])
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("blocksort: %w", err)
	}
	return out, res, nil
}

// Outcome aggregates an FT block-sort run, mirroring core.Outcome.
type Outcome struct {
	// SortedBlocks is the per-node output; trust it only when
	// Detected() is false.
	SortedBlocks [][]int64
	// Result carries per-node errors and clocks.
	Result *node.Result
	// HostErrors are the drained ERROR diagnostics.
	HostErrors []core.HostError
}

// Detected reports whether any fault was detected.
func (o *Outcome) Detected() bool {
	if len(o.HostErrors) > 0 {
		return true
	}
	return o.Result.AnyErr() != nil
}

// RunFT executes the fault-tolerant block bitonic sort.
func RunFT(nw transport.Network, blocks [][]int64) (*Outcome, error) {
	return RunFTWithOptions(nw, blocks, nil)
}

// RunFTWithOptions executes the fault-tolerant block sort with
// per-node options (nil means all honest).
func RunFTWithOptions(nw transport.Network, blocks [][]int64, opts []Options) (*Outcome, error) {
	if err := validateBlocks(nw, blocks); err != nil {
		return nil, err
	}
	n := nw.Topology().Nodes()
	if opts == nil {
		opts = make([]Options, n)
	}
	if len(opts) != n {
		return nil, fmt.Errorf("blocksort: %d option sets for %d nodes", len(opts), n)
	}
	out := make([][]int64, n)
	progs := make([]node.Program, n)
	for id := 0; id < n; id++ {
		progs[id] = nodeProgramFT(blocks[id], &out[id], opts[id])
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return nil, fmt.Errorf("blocksort: %w", err)
	}
	return &Outcome{SortedBlocks: out, Result: res, HostErrors: core.DrainHostErrors(nw)}, nil
}

func validateBlocks(nw transport.Network, blocks [][]int64) error {
	n := nw.Topology().Nodes()
	if len(blocks) != n {
		return fmt.Errorf("blocksort: %d blocks for %d nodes", len(blocks), n)
	}
	if n == 0 {
		return nil
	}
	m := len(blocks[0])
	if m == 0 {
		return fmt.Errorf("blocksort: empty blocks")
	}
	for i, b := range blocks {
		if len(b) != m {
			return fmt.Errorf("blocksort: block %d has %d keys, want %d", i, len(b), m)
		}
	}
	return nil
}

// localSort sorts a block ascending in place and charges the endpoint
// the comparison cost. workers caps the sort's parallelism (<= 0 means
// GOMAXPROCS); the charged count is identical for every worker count.
func localSort(ep transport.Endpoint, b []int64, workers int) error {
	sorted, compares := bitonic.ParallelMergeSortCount(b, workers)
	copy(b, sorted)
	ep.ChargeCompare(compares)
	ep.ChargeKeyMove(len(b))
	return nil
}

// nodeProgramNR is the unreliable block sort: local sort, then the
// bitonic schedule with merge-split exchanges.
func nodeProgramNR(block []int64, out *[]int64) node.Program {
	return func(ep transport.Endpoint) error {
		id := ep.ID()
		n := ep.Topology().Dim()
		mine := append([]int64{}, block...)
		if err := localSort(ep, mine, 0); err != nil {
			return err
		}
		r := &nrRunner{ep: ep, m: len(mine)}
		for i := 0; i < n; i++ {
			for j := i; j >= 0; j-- {
				var err error
				mine, err = r.exchange(mine, i, j)
				if err != nil {
					return fmt.Errorf("blocksort: node %d stage %d iter %d: %w", id, i, j, err)
				}
			}
		}
		*out = mine
		return nil
	}
}

// nrRunner holds the per-node arenas of the unreliable block sort:
// encode scratch, zero-copy decode scratch, and the two alternating
// merge-split buffers (output always goes to the buffer not holding
// the node's current block). Steady-state exchanges allocate nothing.
type nrRunner struct {
	ep   transport.Endpoint
	m    int
	enc  []byte
	dec  wire.DecodeScratch
	bufs [2][]int64
	cur  int
}

func (r *nrRunner) nextBuf() []int64 {
	i := 1 - r.cur
	if cap(r.bufs[i]) < 2*r.m {
		r.bufs[i] = make([]int64, 0, 2*r.m)
	}
	r.cur = i
	return r.bufs[i][:0]
}

func (r *nrRunner) sendKeys(bit, stage, iter int, keys []int64) error {
	r.enc = wire.AppendExchange(r.enc[:0], keys)
	return r.ep.Send(bit, wire.Message{
		Kind:    wire.KindExchange,
		Stage:   int32(stage),
		Iter:    int32(iter),
		Payload: r.enc,
	})
}

func (r *nrRunner) exchange(mine []int64, i, j int) ([]int64, error) {
	id := r.ep.ID()
	ascending := r.ep.Topology().Ascending(i, id)

	if hypercube.Active(id, j) {
		got, err := r.ep.Recv(j)
		if err != nil {
			return nil, err
		}
		p, err := wire.DecodeExchangeInto(&r.dec, got.Payload)
		if err != nil {
			return nil, err
		}
		if len(p.Keys) != len(mine) {
			return nil, fmt.Errorf("partner block %d keys, want %d", len(p.Keys), len(mine))
		}
		lo, hi, compares, err := bitonic.MergeSplitInto(r.nextBuf(), mine, p.Keys)
		if err != nil {
			return nil, err
		}
		r.ep.ChargeCompare(compares)
		r.ep.ChargeKeyMove(2 * len(mine))
		keep, give := lo, hi
		if !ascending {
			keep, give = hi, lo
		}
		if err := r.sendKeys(j, i, j, give); err != nil {
			return nil, err
		}
		return keep, nil
	}

	if err := r.sendKeys(j, i, j, mine); err != nil {
		return nil, err
	}
	got, err := r.ep.Recv(j)
	if err != nil {
		return nil, err
	}
	p, err := wire.DecodeExchangeInto(&r.dec, got.Payload)
	if err != nil {
		return nil, err
	}
	if len(p.Keys) != len(mine) {
		return nil, fmt.Errorf("returned block %d keys, want %d", len(p.Keys), len(mine))
	}
	// The returned block aliases the decode scratch; copy it into the
	// buffer not holding mine before the next receive clobbers it.
	adopted := r.nextBuf()[:len(mine)]
	copy(adopted, p.Keys)
	return adopted, nil
}
