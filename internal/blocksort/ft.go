package blocksort

import (
	"fmt"
	"slices"

	"repro/internal/bitonic"
	"repro/internal/bitset"
	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/node"
	"repro/internal/transport"
	"repro/internal/wire"
)

// blockView is the block-sorting analogue of the core package's
// gathered LBS: one sorted block per subcube slot plus the knowledge
// mask. Blocks are consecutive m-key slices of one flat arena (data),
// so a view reset between stages reuses storage instead of
// reallocating per slot, and the slot-order sequence of any slot range
// is a sub-slice of the arena (seq) rather than a copy.
// slotDig holds the multiset digest of each held slot's block, always
// computed locally from the adopted bytes (never taken from a sender's
// claim), so folding a slot into an aggregate check is O(1) and the
// aggregates a node relays are consistent with what it actually holds.
type blockView struct {
	sc      hypercube.Subcube
	m       int
	have    bitset.Set
	data    []int64
	blocks  [][]int64
	slotDig []wire.Digest
}

func newBlockView(sc hypercube.Subcube, m int) *blockView {
	g := &blockView{}
	g.reset(sc, m)
	return g
}

// reset reinitializes the view for a new subcube, reusing the arena.
// Slot contents are left stale; the knowledge mask gates every read.
func (g *blockView) reset(sc hypercube.Subcube, m int) {
	g.sc = sc
	g.m = m
	g.have.Reset(sc.Size())
	need := sc.Size() * m
	if cap(g.data) < need {
		g.data = make([]int64, need)
	} else {
		g.data = g.data[:need]
	}
	if cap(g.blocks) < sc.Size() {
		g.blocks = make([][]int64, sc.Size())
	} else {
		g.blocks = g.blocks[:sc.Size()]
	}
	if cap(g.slotDig) < sc.Size() {
		g.slotDig = make([]wire.Digest, sc.Size())
	} else {
		g.slotDig = g.slotDig[:sc.Size()]
		for i := range g.slotDig {
			g.slotDig[i] = wire.Digest{}
		}
	}
	for i := 0; i < sc.Size(); i++ {
		g.blocks[i] = g.data[i*m : (i+1)*m : (i+1)*m]
	}
}

func (g *blockView) set(nodeLabel int, b []int64) {
	idx := nodeLabel - g.sc.Start
	g.have.Add(idx)
	copy(g.blocks[idx], b)
	g.slotDig[idx] = wire.DigestOf(g.blocks[idx])
}

// rangeDigest folds the digests of slots [lo, hi); valid only when
// those slots are held.
func (g *blockView) rangeDigest(lo, hi int) wire.Digest {
	var d wire.Digest
	for i := lo; i < hi; i++ {
		d.Merge(g.slotDig[i])
	}
	return d
}

func (g *blockView) complete() bool { return g.have.Full() }

// seq returns the slot-order concatenation of slots [lo, hi) as a
// sub-slice of the arena; valid only when those slots are held, and
// only until the view is next written.
func (g *blockView) seq(lo, hi int) []int64 { return g.data[lo*g.m : hi*g.m] }

// wireViewInto converts the view to its wire form, staging the held
// blocks in a caller-owned Vals scratch. The result's Mask shares the
// working view's storage and its Vals share the scratch, so it must be
// encoded before either changes — which every send path does
// immediately.
func (g *blockView) wireViewInto(scratch []int64) wire.View {
	vals := scratch[:0]
	var dig wire.Digest
	g.have.Each(func(idx int) bool {
		vals = append(vals, g.blocks[idx]...)
		dig.Merge(g.slotDig[idx])
		return true
	})
	return wire.View{
		Base:     int32(g.sc.Start),
		Size:     int32(g.sc.Size()),
		BlockLen: int32(g.m),
		Mask:     g.have,
		Vals:     vals,
		Dig:      dig,
	}
}

// mergeChecked is Φ_C for blocks: the sender's mask must match the
// vect_mask prediction, and any block we already hold must be
// identical key-for-key to the relayed copy.
//
// The key-for-key walk over held slots (O(Count·m)) is demoted to a
// slow path: one pass folds the held slots' stored digests (O(1) each)
// and self-hashes the slots it adopts, and if the accumulated digest
// matches the sender's aggregate, every held copy agrees with its
// relayed copy up to hash collision (DigestHit). On a mismatch the
// key-for-key re-walk runs to produce the usual slot-level conflict
// evidence; adopted slots were copied verbatim so they cannot conflict,
// and if no held slot conflicts either, the sender's aggregate
// disagrees with the very entries it relayed — Byzantine evidence
// against the sender (DigestMiss both ways). Adopting before the
// verdict is sound because every mergeChecked error fail-stops the
// node.
func (g *blockView) mergeChecked(rv wire.View, expected bitset.Set) (core.DigestOutcome, error) {
	if err := rv.Validate(); err != nil {
		return core.DigestNone, fmt.Errorf("malformed view: %w", err)
	}
	if int(rv.Base) != g.sc.Start || int(rv.Size) != g.sc.Size() || int(rv.BlockLen) != g.m {
		return core.DigestNone, fmt.Errorf("view geometry [%d,+%d)x%d does not match subcube %v x%d",
			rv.Base, rv.Size, rv.BlockLen, g.sc, g.m)
	}
	if !rv.Mask.Equal(expected) {
		return core.DigestNone, fmt.Errorf("claimed knowledge mask %s differs from schedule's %s", rv.Mask.String(), expected.String())
	}
	var acc wire.Digest
	i := 0
	rv.Mask.Each(func(idx int) bool {
		if g.have.Has(idx) {
			acc.Merge(g.slotDig[idx])
		} else {
			g.have.Add(idx)
			copy(g.blocks[idx], rv.Block(i))
			g.slotDig[idx] = wire.DigestOf(g.blocks[idx])
			acc.Merge(g.slotDig[idx])
		}
		i++
		return true
	})
	if acc == rv.Dig {
		return core.DigestHit, nil
	}
	var conflict error
	i = 0
	rv.Mask.Each(func(idx int) bool {
		b := rv.Block(i)
		i++
		for k := range b {
			if g.blocks[idx][k] != b[k] {
				conflict = fmt.Errorf("slot %d (node %d) key %d: held copy %d disagrees with relayed copy %d",
					idx, g.sc.Start+idx, k, g.blocks[idx][k], b[k])
				return false
			}
		}
		return true
	})
	if conflict != nil {
		return core.DigestMiss, conflict
	}
	return core.DigestMiss, fmt.Errorf("view digest inconsistent with relayed entries")
}

func (g *blockView) mergeLenient(rv wire.View) {
	if rv.Validate() != nil || int(rv.Base) != g.sc.Start ||
		int(rv.Size) != g.sc.Size() || int(rv.BlockLen) != g.m {
		return
	}
	i := 0
	rv.Mask.Each(func(idx int) bool {
		b := rv.Block(i)
		i++
		if !g.have.Has(idx) {
			g.have.Add(idx)
			copy(g.blocks[idx], b)
			// Even a checks-skipping node keeps its slot digests
			// consistent with what it holds, so the aggregates it
			// relays match its entries.
			g.slotDig[idx] = wire.DigestOf(g.blocks[idx])
		}
		return true
	})
}

// ProgressBlocks is Φ_P scaled by m: each block must be internally
// ascending; for a regular stage the lower half's node-order
// concatenation and the upper half's reverse-node-order concatenation
// must both be globally ascending; at the final verification the whole
// node-order concatenation must be ascending. Once every block is
// known to be ascending, a concatenation is ascending exactly when each
// seam between consecutive non-empty blocks is ordered, so the
// concatenations are checked at their seams and never built.
func ProgressBlocks(blocks [][]int64, final bool) error {
	for i, b := range blocks {
		if !bitonic.IsSorted(b, true) {
			return fmt.Errorf("block %d not internally sorted: %w", i, core.ErrProgress)
		}
	}
	if final {
		if !seamsAscending(blocks, false) {
			return fmt.Errorf("final block concatenation not ascending: %w", core.ErrProgress)
		}
		return nil
	}
	if len(blocks)%2 != 0 {
		return fmt.Errorf("odd block count %d: %w", len(blocks), core.ErrProgress)
	}
	half := len(blocks) / 2
	if !seamsAscending(blocks[:half], false) {
		return fmt.Errorf("lower half block concatenation not ascending: %w", core.ErrProgress)
	}
	if !seamsAscending(blocks[half:], true) {
		return fmt.Errorf("upper half reverse concatenation not ascending: %w", core.ErrProgress)
	}
	return nil
}

// seamsAscending reports whether the concatenation of internally
// ascending blocks, taken in slice order or reversed, is ascending:
// every non-empty block must start at or above the last key of the
// non-empty block before it.
func seamsAscending(blocks [][]int64, reversed bool) bool {
	var last int64
	seen := false
	for k := range blocks {
		b := blocks[k]
		if reversed {
			b = blocks[len(blocks)-1-k]
		}
		if len(b) == 0 {
			continue
		}
		if seen && b[0] < last {
			return false
		}
		last, seen = b[len(b)-1], true
	}
	return true
}

// nodeProgramFT is the fault-tolerant block sort node program.
func nodeProgramFT(block []int64, out *[]int64, opts Options) node.Program {
	return func(ep transport.Endpoint) error {
		b, err := newFTRunner(ep, opts, len(block)).run(block)
		if err != nil {
			return err
		}
		*out = b
		return nil
	}
}

// newFTRunner returns the runner for the node at ep holding m keys,
// with its protocol shell bound to it.
func newFTRunner(ep transport.Endpoint, opts Options, m int) *ftRunner {
	r := &ftRunner{ep: ep, opts: opts, m: m}
	r.Protocol = core.NewProtocol(ep, r, core.Options{
		Tamper: opts.Tamper, SkipChecks: opts.SkipChecks,
		Obs: opts.Obs, Forensic: opts.Forensic,
	})
	return r
}

// ftRunner is the block sort's kernel over the shared core.Protocol
// shell: m keys per node, so its view holds one block per subcube slot
// and each exchange is a merge-split of 2m keys.
type ftRunner struct {
	core.Protocol
	ep   transport.Endpoint
	opts Options
	m    int

	// Per-node arenas reused across every stage and iteration: the two
	// block views, the keep·give send staging buffer, the two
	// alternating merge-split buffers, and the merge-split verification
	// scratch (the shell holds the codec scratch and the wire-view
	// staging). All are sized when the run starts, so no stage grows
	// them.
	//
	// Stage s gathers into views[s%2] (view points at it), and the final
	// round into views[n%2]. Alternating leaves the previous stage's
	// verified sequence intact in the other view's arena, where Φ_F and
	// the stage-view stream read it as a sub-slice instead of a copy.
	views    [2]blockView
	view     *blockView
	keyStage []int64
	bufs     [2][]int64
	cur      int
	msCheck  []int64
}

// WireView, MergeView and ViewDigest implement core.Kernel over the
// current block view.
func (r *ftRunner) WireView(scratch []int64) wire.View { return r.view.wireViewInto(scratch) }

func (r *ftRunner) ViewDigest() wire.Digest { return r.view.rangeDigest(0, r.view.sc.Size()) }

// reserve sizes every arena once: the views and the wire-view staging
// for the whole cube scAll, since each stage's subcube is a slot range
// of it; the encode buffer for the largest payload, a full view plus
// the 2m keys of a merge-split reply; the merge-split scratches for 2m.
func (r *ftRunner) reserve(scAll hypercube.Subcube) {
	for i := range r.views {
		r.views[i].reset(scAll, r.m)
	}
	r.Reserve(scAll.Size()*r.m, 4+8*2*r.m+wire.ViewEncodedSize(scAll.Size(), scAll.Size(), r.m))
	for _, buf := range []*[]int64{&r.bufs[0], &r.bufs[1], &r.keyStage, &r.msCheck} {
		*buf = make([]int64, 0, 2*r.m)
	}
}

// nextBuf flips to the merge-split buffer NOT holding the node's
// current block and returns it (cap 2m, length 0). Alternating between
// two buffers lets MergeSplitInto write its output while reading the
// current block from the other.
func (r *ftRunner) nextBuf() []int64 {
	r.cur = 1 - r.cur
	return r.bufs[r.cur][:0]
}

func (r *ftRunner) run(block []int64) ([]int64, error) {
	id := r.ep.ID()
	topo := r.ep.Topology()
	n := topo.Dim()
	mine := append([]int64{}, block...)
	if err := localSort(r.ep, mine, r.opts.Parallelism); err != nil {
		return nil, err
	}
	if n == 0 {
		return mine, nil
	}
	scAll, err := topo.HomeSubcube(n, id)
	if err != nil {
		return nil, fmt.Errorf("blocksort: %w", err)
	}
	r.reserve(scAll)

	var prevFlat []int64 // verified previous sequence (LLBS · m), in the other view's arena
	var prevSC hypercube.Subcube
	var prevDig wire.Digest // multiset digest of prevFlat, saved at the stage boundary

	for s := 0; s < n; s++ {
		// Faulty-memory hook: the resident block may corrupt between
		// stages (never before the first exchange, per environmental
		// assumption 5 — a stage-0 corruption would be different input).
		if r.opts.CorruptMemory != nil && s > 0 {
			r.opts.CorruptMemory(s, mine)
		}
		stageVT := r.BeginStage(s)
		sc, err := topo.HomeSubcube(s+1, id)
		if err != nil {
			return nil, fmt.Errorf("blocksort: %w", err)
		}
		view := &r.views[s%2]
		r.view = view
		view.reset(sc, r.m)
		view.set(id, mine)
		for j := s; j >= 0; j-- {
			r.opts.Obs.RoundBegin(id, s, j, int64(r.ep.Clock()))
			mine, err = r.exchange(mine, s, j)
			if err != nil {
				return nil, err
			}
			r.opts.Obs.RoundEnd(id, s, j, int64(r.ep.Clock()))
		}
		if err := r.CheckGather(view.have, s); err != nil {
			return nil, err
		}
		if s > 0 && !r.opts.SkipChecks {
			if err := r.CheckProgress(s, sc.Size()*r.m, ProgressBlocks(view.blocks, false)); err != nil {
				return nil, err
			}
			// Φ_F: the previous home subcube is a contiguous slot range
			// of this stage's view, so its multiset digest folds from
			// the stored per-slot digests in O(slots).
			lo := prevSC.Start - sc.Start
			hi := lo + prevSC.Size()
			if err := r.CheckFeasibility(s, view.rangeDigest(lo, hi), prevDig, prevFlat, view.seq(lo, hi)); err != nil {
				return nil, err
			}
		}
		prevFlat = view.seq(0, sc.Size())
		prevDig = view.rangeDigest(0, sc.Size())
		r.ep.ChargeKeyMove(len(prevFlat))
		r.EndStage(s, stageVT, sc, r.m, prevFlat)
		prevSC = sc
	}

	// Faulty memory can also strike between the last stage and the
	// final verification round.
	if r.opts.CorruptMemory != nil {
		r.opts.CorruptMemory(n, mine)
	}

	// Final verification round.
	finalVT := r.BeginStage(n)
	view := &r.views[n%2]
	r.view = view
	view.reset(scAll, r.m)
	view.set(id, mine)
	if err := r.VerifyRound(n); err != nil {
		return nil, err
	}
	if err := r.CheckGather(view.have, n); err != nil {
		return nil, err
	}
	if !r.opts.SkipChecks {
		if err := r.CheckProgress(n, scAll.Size()*r.m, ProgressBlocks(view.blocks, true)); err != nil {
			return nil, err
		}
		// Final Φ_F: the verification round re-gathers the whole cube,
		// so the full range digest stands in for the permutation scan.
		if err := r.CheckFeasibility(n, view.rangeDigest(0, scAll.Size()), prevDig,
			prevFlat, view.seq(0, scAll.Size())); err != nil {
			return nil, err
		}
	}
	r.EndStage(n, finalVT, scAll, r.m, view.seq(0, scAll.Size()))
	return mine, nil
}

func (r *ftRunner) exchange(mine []int64, s, j int) ([]int64, error) {
	id := r.ep.ID()
	topo := r.ep.Topology()
	partner, err := topo.Partner(id, j)
	if err != nil {
		return nil, fmt.Errorf("blocksort: %w", err)
	}
	ascending := topo.Ascending(s, id)

	if hypercube.Active(id, j) {
		p, ok, err := r.RecvFT(j, s, partner)
		if err != nil {
			return nil, err
		}
		theirs := mine // degenerate fallback for SkipChecks nodes
		if ok {
			if len(p.Keys) != r.m && !r.opts.SkipChecks {
				return nil, r.FailFrom(core.ErrProtocol, s, j, partner, "expected %d keys from %d, got %d", r.m, partner, len(p.Keys))
			}
			if len(p.Keys) == r.m {
				theirs = p.Keys
			}
			if err := r.MergeView(p.View, s, j, partner, false); err != nil {
				return nil, err
			}
			if !r.opts.SkipChecks && !bitonic.IsSorted(theirs, true) {
				return nil, r.FailFrom(core.ErrProtocol, s, j, partner, "block from %d not sorted", partner)
			}
			// At the stage's first iteration the sender's block and its
			// own relayed view entry are both its stage-start block;
			// disagreement proves the sender lied about one of them
			// (Φ_C, with the liar named).
			if !r.opts.SkipChecks && j == s {
				if idx := partner - r.view.sc.Start; r.view.have.Has(idx) && !slices.Equal(theirs, r.view.blocks[idx]) {
					return nil, r.FailFrom(core.ErrConsistency, s, j, partner,
						"stage-start keys from %d disagree with its relayed view entry", partner)
				}
			}
		}
		// Merge into the buffer not holding mine; theirs may still
		// alias the decode scratch, which MergeSplitInto only reads.
		var lo, hi []int64
		var compares int
		var merr error
		if r.opts.Compare != nil {
			stage := s
			lo, hi, compares, merr = bitonic.MergeSplitParallelFuncInto(r.nextBuf(), mine, theirs,
				func(a, b int64) bool { return r.opts.Compare(stage, a, b) }, r.opts.Parallelism)
		} else {
			lo, hi, compares, merr = bitonic.MergeSplitParallelInto(r.nextBuf(), mine, theirs, r.opts.Parallelism)
		}
		if merr != nil {
			return nil, fmt.Errorf("blocksort: %w", merr)
		}
		r.ep.ChargeCompare(compares)
		r.opts.Obs.MergeCompares(compares)
		if r.opts.Forensic != nil {
			// The kept half's digest fingerprints the merge-split verdict
			// in the flight recorder (wall-clock only; never charged).
			r.opts.Forensic.Merge(int32(s), int32(j), int64(compares),
				wire.DigestOf(lo), int64(r.ep.Clock()))
		}
		r.ep.ChargeKeyMove(2 * r.m)
		keep, give := lo, hi
		if !ascending {
			keep, give = hi, lo
		}
		r.keyStage = append(append(r.keyStage[:0], keep...), give...)
		if err := r.SendFT(j, s, r.keyStage); err != nil {
			return nil, err
		}
		return keep, nil
	}

	// Passive side: send our block and current view, then adopt the
	// returned half after validating the merge-split.
	if err := r.SendFT(j, s, mine); err != nil {
		return nil, err
	}
	return r.passiveReply(mine, s, j, partner, ascending)
}

// passiveReply receives the active partner's merge-split reply,
// merges its echoed view, and validates both halves before adopting
// the one the schedule gives us.
func (r *ftRunner) passiveReply(mine []int64, s, j, partner int, ascending bool) ([]int64, error) {
	p, ok, err := r.RecvFT(j, s, partner)
	if err != nil {
		return nil, err
	}
	if !ok {
		return mine, nil
	}
	if len(p.Keys) != 2*r.m {
		if r.opts.SkipChecks {
			return mine, nil
		}
		return nil, r.FailFrom(core.ErrProtocol, s, j, partner, "expected %d keys from %d, got %d", 2*r.m, partner, len(p.Keys))
	}
	if err := r.MergeView(p.View, s, j, partner, true); err != nil {
		return nil, err
	}
	keep, give := p.Keys[:r.m], p.Keys[r.m:]
	if !r.opts.SkipChecks {
		if !bitonic.IsSorted(keep, true) || !bitonic.IsSorted(give, true) {
			return nil, r.FailFrom(core.ErrProtocol, s, j, partner, "merge-split reply from %d has unsorted halves", partner)
		}
		if ascending && keep[r.m-1] > give[0] {
			return nil, r.FailFrom(core.ErrProtocol, s, j, partner,
				"ascending merge-split reply from %d misordered (%d > %d)", partner, keep[r.m-1], give[0])
		}
		if !ascending && keep[0] < give[r.m-1] {
			return nil, r.FailFrom(core.ErrProtocol, s, j, partner,
				"descending merge-split reply from %d misordered (%d < %d)", partner, keep[0], give[r.m-1])
		}
		// At the stage's first iteration both input blocks are known
		// (the partner's is its seeded view entry), so the whole
		// merge-split is verifiable.
		if j == s {
			if idx := partner - r.view.sc.Start; r.view.have.Has(idx) {
				wantLo, wantHi, _, merr := bitonic.MergeSplitParallelInto(r.msCheck[:0], mine, r.view.blocks[idx], r.opts.Parallelism)
				if merr == nil {
					wantKeep, wantGive := wantLo, wantHi
					if !ascending {
						wantKeep, wantGive = wantHi, wantLo
					}
					if !slices.Equal(keep, wantKeep) || !slices.Equal(give, wantGive) {
						return nil, r.FailFrom(core.ErrProtocol, s, j, partner,
							"merge-split by %d returned wrong halves", partner)
					}
				}
			}
		}
	}
	// give aliases the decode scratch, which the next receive will
	// clobber; copy it into the buffer not holding mine.
	adopted := r.nextBuf()[:r.m]
	copy(adopted, give)
	return adopted, nil
}

// MergeView folds a received view into the current one under Φ_C: the
// sender's mask must match the vect_mask prediction and every block
// already held must equal its relayed copy.
func (r *ftRunner) MergeView(rv wire.View, s, j, sender int, postExchange bool) error {
	view := r.view
	// The sender's claimed aggregate digest fingerprints the merged view
	// in the flight recorder.
	r.opts.Forensic.Merge(int32(s), int32(j), int64(rv.Mask.Count()),
		rv.Dig, int64(r.ep.Clock()))
	if r.opts.SkipChecks {
		r.ep.ChargeCompare(rv.Mask.Count() * int(rv.BlockLen))
		view.mergeLenient(rv)
		return nil
	}
	expected, err := r.ExpectedMask(s, j, sender, view.sc, postExchange)
	if err != nil {
		return err
	}
	outcome, merr := view.mergeChecked(rv, expected)
	// Charge what the merge actually did: a hit folds one stored digest
	// per relayed slot plus the aggregate comparison; a miss pays the
	// key-for-key walk on top; a merge that failed validation before
	// the digest pass charges the key-for-key walk.
	switch outcome {
	case core.DigestHit:
		r.ep.ChargeCompare(rv.Mask.Count() + wire.DigestCompareCost)
		r.opts.Obs.DigestCheck(true)
	case core.DigestMiss:
		r.ep.ChargeCompare(rv.Mask.Count() + wire.DigestCompareCost + rv.Mask.Count()*int(rv.BlockLen))
		r.opts.Obs.DigestCheck(false)
		r.opts.Obs.DigestSlowScan()
	default:
		r.ep.ChargeCompare(rv.Mask.Count() * int(rv.BlockLen))
	}
	return r.CheckMerge(s, j, sender, merr)
}
