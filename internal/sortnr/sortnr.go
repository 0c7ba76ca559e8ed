// Package sortnr implements S_NR, the paper's non-redundant (and
// non-fault-tolerant) distributed bitonic sort of Figure 2: one key
// per node on an n-dimensional hypercube, sorted ascending by node
// label in n(n+1)/2 compare-exchange steps. With m keys per node
// (Section 5's block sort) each node first sorts its block locally and
// each compare-exchange becomes a merge-split of 2m keys; one runner
// serves every m, and S_NR's one key per node is the m = 1 case (Run,
// NodeProgram) of RunBlocks.
//
// S_NR is the performance baseline for S_FT and, under fault
// injection, the cautionary tale: a single Byzantine node corrupts the
// output silently.
package sortnr

import (
	"fmt"

	"repro/internal/bitonic"
	"repro/internal/hypercube"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Options tunes a node program. The zero value is the honest protocol.
type Options struct {
	// Tamper, when non-nil, intercepts every outgoing message just
	// before transmission, modelling a Byzantine processor: it may
	// mutate the message (value lies, wrong compare-exchange results),
	// return a replacement, or return nil to stay silent. It is called
	// with From/To already stamped so strategies can vary by receiver.
	Tamper func(m *wire.Message) *wire.Message
	// Obs, when non-nil, receives stage and round spans. S_NR has no Φ
	// predicates to report; the spans exist so the baseline's schedule
	// shows up in the same journal as S_FT's. Nil-safe,
	// allocation-free, and never charges virtual time.
	Obs *obs.Observer
}

// NodeProgram returns the S_NR program for one node: the m = 1 case of
// the runner RunBlocks runs on every node. The node's initial key is
// key; its final key is written to *out on completion (each node
// writes only its own slot, so a shared slice needs no locking).
func NodeProgram(key int64, out *int64, opts Options) node.Program {
	return func(ep transport.Endpoint) error {
		b := [1]int64{key}
		if err := runNode(ep, b[:], b[:], opts); err != nil {
			return err
		}
		*out = b[0]
		return nil
	}
}

// Run executes S_NR over the network with keys[id] as node id's input
// and returns the gathered output (out[id] = node id's final key)
// along with the harness result.
func Run(nw transport.Network, keys []int64) ([]int64, *node.Result, error) {
	return RunBlocks(nw, keys, 1)
}

// RunBlocks executes the unreliable sort with m keys per node:
// keys[id*m:(id+1)*m] is node id's initial block. The output is the
// node-order concatenation of the final blocks, which is the globally
// sorted ascending sequence.
func RunBlocks(nw transport.Network, keys []int64, m int) ([]int64, *node.Result, error) {
	n := nw.Topology().Nodes()
	if m < 1 || len(keys) != n*m {
		return nil, nil, fmt.Errorf("sortnr: %d keys for %d nodes of %d keys each", len(keys), n, m)
	}
	out := make([]int64, n*m)
	progs := make([]node.Program, n)
	for id := range progs {
		block, dst := keys[id*m:(id+1)*m], out[id*m:(id+1)*m]
		progs[id] = func(ep transport.Endpoint) error { return runNode(ep, block, dst, Options{}) }
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		return nil, nil, fmt.Errorf("sortnr: %w", err)
	}
	return out, res, nil
}

// runNode runs the node at ep holding block, m = len(block) keys, and
// on completion writes its final block to out (len m); block and out
// may alias.
func runNode(ep transport.Endpoint, block, out []int64, opts Options) error {
	id := ep.ID()
	n := ep.Topology().Dim()
	r := newRunner(ep, opts, len(block))
	mine := r.bufs[r.cur][:r.m]
	copy(mine, block)
	sorted, compares := bitonic.ParallelMergeSortCount(mine, 0)
	copy(mine, sorted)
	ep.ChargeCompare(compares)
	ep.ChargeKeyMove(len(mine))
	for i := 0; i < n; i++ {
		stageVT := int64(ep.Clock())
		opts.Obs.StageBegin(id, i, false, stageVT)
		for j := i; j >= 0; j-- {
			opts.Obs.RoundBegin(id, i, j, int64(ep.Clock()))
			var err error
			mine, err = r.exchange(mine, i, j)
			if err != nil {
				return fmt.Errorf("sortnr: node %d stage %d iter %d: %w", id, i, j, err)
			}
			opts.Obs.RoundEnd(id, i, j, int64(ep.Clock()))
		}
		opts.Obs.StageEnd(id, i, false, stageVT, int64(ep.Clock()))
	}
	copy(out, mine)
	return nil
}

// runner holds one node's arenas, sized once per run: the encode
// buffer, the zero-copy decode scratch, and the two alternating
// merge-split buffers (output always goes to the buffer not holding
// the node's current block). Steady-state exchanges allocate nothing.
type runner struct {
	ep   transport.Endpoint
	opts Options
	m    int
	enc  []byte
	dec  wire.DecodeScratch
	bufs [2][]int64
	cur  int
}

func newRunner(ep transport.Endpoint, opts Options, m int) *runner {
	r := &runner{ep: ep, opts: opts, m: m, enc: make([]byte, 0, 4+8*m)}
	keys := make([]int64, 4*m)
	r.bufs[0], r.bufs[1] = keys[:0:2*m], keys[2*m:2*m]
	return r
}

// nextBuf flips to the merge-split buffer not holding the node's
// current block and returns it (cap 2m, length 0).
func (r *runner) nextBuf() []int64 {
	r.cur = 1 - r.cur
	return r.bufs[r.cur][:0]
}

// exchange performs the (i, j) merge-split of Figure 2, scaled by m,
// and returns the node's new block. The node with a zero in bit j is
// active: it receives the partner's block, merge-splits, keeps one
// half, and sends the other back. The partner is passive: it sends its
// block and adopts whatever comes back.
func (r *runner) exchange(mine []int64, i, j int) ([]int64, error) {
	if !hypercube.Active(r.ep.ID(), j) {
		if err := r.send(j, i, mine); err != nil {
			return nil, err
		}
		return r.adopt(j)
	}
	theirs, err := r.recv(j)
	if err != nil {
		return nil, err
	}
	// Merge into the buffer not holding mine; theirs aliases the decode
	// scratch, which the merge-split only reads.
	lo, hi, compares, err := bitonic.MergeSplitInto(r.nextBuf(), mine, theirs)
	if err != nil {
		return nil, err
	}
	r.ep.ChargeCompare(compares)
	r.ep.ChargeKeyMove(2 * r.m)
	keep, give := lo, hi
	if !r.ep.Topology().Ascending(i, r.ep.ID()) {
		keep, give = hi, lo
	}
	if err := r.send(j, i, give); err != nil {
		return nil, err
	}
	return keep, nil
}

// adopt receives the half the active partner returns on link bit and
// copies it out of the decode scratch, which the next receive will
// clobber, into the buffer not holding the node's current block.
func (r *runner) adopt(bit int) ([]int64, error) {
	keys, err := r.recv(bit)
	if err != nil {
		return nil, err
	}
	adopted := r.nextBuf()[:r.m]
	copy(adopted, keys)
	return adopted, nil
}

// recv receives m keys from the partner on link bit; the result
// aliases the decode scratch.
func (r *runner) recv(bit int) ([]int64, error) {
	got, err := r.ep.Recv(bit)
	if err != nil {
		return nil, err
	}
	p, err := wire.DecodeExchangeInto(&r.dec, got.Payload)
	if err != nil {
		return nil, err
	}
	if len(p.Keys) != r.m {
		return nil, fmt.Errorf("expected %d keys, got %d", r.m, len(p.Keys))
	}
	return p.Keys, nil
}

// send transmits keys on link bit, labelled with the stage and the
// iteration (= link bit).
func (r *runner) send(bit, stage int, keys []int64) error {
	r.enc = wire.AppendExchange(r.enc[:0], keys)
	m := wire.Message{
		Kind:    wire.KindExchange,
		Stage:   int32(stage),
		Iter:    int32(bit),
		Payload: r.enc,
	}
	if r.opts.Tamper != nil {
		return r.sendTampered(bit, m)
	}
	return r.ep.Send(bit, m)
}

// sendTampered is the Byzantine branch of send, kept out of line:
// Tamper takes the message's address, which would otherwise force
// every honest send's message to the heap.
func (r *runner) sendTampered(bit int, m wire.Message) error {
	partner, err := r.ep.Topology().Partner(r.ep.ID(), bit)
	if err != nil {
		return err
	}
	m.From = int32(r.ep.ID())
	m.To = int32(partner)
	out := r.opts.Tamper(&m)
	if out == nil {
		return nil // Byzantine silence
	}
	return r.ep.Send(bit, *out)
}
