package core

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/hypercube"
	"repro/internal/wire"
)

// blockView is a node's working copy of the stage's bitonic-sequence
// view (the paper's LBS plus its lmask), scaled by m: one sorted block
// of m keys per subcube slot plus the knowledge mask saying which slots
// have been collected. S_FT's one key per node is the m = 1 case.
//
// Blocks are consecutive m-key slices of one flat arena (data), so a
// view reset between stages reuses storage instead of reallocating per
// slot, and the slot-order sequence of any slot range is a sub-slice of
// the arena (seq) rather than a copy. slotDig holds the multiset digest
// of each held slot's block, always computed locally from the adopted
// keys (never taken from a sender's claim), so folding a slot into an
// aggregate check is O(1) and the aggregates a node relays are
// consistent with what it actually holds.
type blockView struct {
	sc      hypercube.Subcube
	m       int
	have    bitset.Set
	data    []int64
	blocks  [][]int64
	slotDig []wire.Digest
}

func newBlockView(sc hypercube.Subcube, m int) *blockView {
	g := &blockView{
		data:    make([]int64, sc.Size()*m),
		blocks:  make([][]int64, sc.Size()),
		slotDig: make([]wire.Digest, sc.Size()),
	}
	g.reset(sc, m)
	return g
}

// reset reinitializes the view for a new subcube of at most as many
// slots of m keys as its arenas hold, reusing them. Slot contents are
// left stale; the knowledge mask gates every read.
func (g *blockView) reset(sc hypercube.Subcube, m int) {
	g.sc = sc
	g.m = m
	g.have.Reset(sc.Size())
	g.data = g.data[:sc.Size()*m]
	g.blocks = g.blocks[:sc.Size()]
	g.slotDig = g.slotDig[:sc.Size()]
	clear(g.slotDig)
	for i := range g.blocks {
		g.blocks[i] = g.data[i*m : (i+1)*m : (i+1)*m]
	}
}

// set records the block of an absolute node label.
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

// digest is the multiset digest of every held slot.
func (g *blockView) digest() wire.Digest { return g.rangeDigest(0, g.sc.Size()) }

func (g *blockView) complete() bool { return g.have.Full() }

// seq returns the slot-order concatenation of slots [lo, hi) as a
// sub-slice of the arena; valid only when those slots are held, and
// only until the view is next written.
func (g *blockView) seq(lo, hi int) []int64 { return g.data[lo*g.m : hi*g.m] }

// wireLen is the length of the view's wire encoding (appendWire).
func (g *blockView) wireLen() int {
	return wire.ViewEncodedSize(g.sc.Size(), g.have.Count(), g.m)
}

// appendWire appends the view's wire encoding to buf straight from the
// arena: the bytes wire.AppendView would produce for the held blocks,
// with the aggregate digest folded from the stored slot digests, each
// bound to its index.
func (g *blockView) appendWire(buf []byte) []byte {
	var dig wire.Digest
	g.have.Each(func(idx int) bool {
		dig.Merge(wire.SlotBound(idx, g.slotDig[idx]))
		return true
	})
	buf = wire.AppendViewHeader(buf, int32(g.sc.Start), int32(g.sc.Size()), int32(g.m), dig, g.have)
	g.have.Each(func(idx int) bool {
		buf = wire.AppendVals(buf, g.blocks[idx])
		return true
	})
	return buf
}

// mergeChecked is the heart of Φ_C (Figure 4c), scaled by m: fold a
// received view into the local one. The sender's claimed mask must
// exactly match expected, the knowledge the exchange schedule entitles
// it to (the vect_mask prediction) — claiming more is fabrication,
// claiming less is withholding, and both are faults. Every block we
// already hold (collected via a vertex-disjoint relay path) must be
// identical key-for-key to the relayed copy; the others are adopted.
//
// The key-for-key walk over held slots (O(Count·m)) is demoted to a
// slow path: one pass folds, for every slot the sender claims, the
// slot's stored digest bound to its index (O(1) each), and decodes each
// slot it adopts from the frame straight into the arena, digesting it
// in the same loop. If the accumulated digest matches the sender's
// aggregate (DigestHit), that aggregate agrees, up to hash collision,
// with the slots the receiver holds and adopts, at their indices. A
// hit never reads the relayed copies of slots the receiver already
// held: it ties the sender's claim to the receiver's own state, not to
// those relayed bytes. On a mismatch the key-for-key re-walk reads them
// from the frame to produce the usual slot-level conflict evidence;
// adopted slots were decoded from those very bytes so they cannot
// conflict, and if no held slot conflicts either, the sender's aggregate disagrees with
// the very entries it relayed — Byzantine evidence against the sender
// (DigestMiss both ways). Adopting before the verdict is sound because
// every mergeChecked error fail-stops the node.
func (g *blockView) mergeChecked(rv wire.FrameView, expected bitset.Set) (DigestOutcome, error) {
	if err := rv.Validate(); err != nil {
		return DigestNone, fmt.Errorf("malformed view: %w", err)
	}
	if int(rv.Base) != g.sc.Start || int(rv.Size) != g.sc.Size() || int(rv.BlockLen) != g.m {
		return DigestNone, fmt.Errorf("view geometry [%d,+%d)x%d does not match subcube %v x%d",
			rv.Base, rv.Size, rv.BlockLen, g.sc, g.m)
	}
	if !rv.Mask.Equal(expected) {
		return DigestNone, fmt.Errorf("claimed knowledge mask %s differs from schedule's %s", rv.Mask.String(), expected.String())
	}
	var acc wire.Digest
	i := 0
	rv.Mask.Each(func(idx int) bool {
		if !g.have.Has(idx) {
			g.have.Add(idx)
			g.slotDig[idx] = rv.Block(i, g.blocks[idx])
		}
		acc.Merge(wire.SlotBound(idx, g.slotDig[idx]))
		i++
		return true
	})
	if acc == rv.Dig {
		return DigestHit, nil
	}
	var conflict error
	j := 0
	rv.Mask.Each(func(idx int) bool {
		for k, held := range g.blocks[idx] {
			if relayed := rv.Val(j); held != relayed {
				conflict = fmt.Errorf("slot %d (node %d) key %d: held copy %d disagrees with relayed copy %d",
					idx, g.sc.Start+idx, k, held, relayed)
				return false
			}
			j++
		}
		return true
	})
	if conflict != nil {
		return DigestMiss, conflict
	}
	return DigestMiss, fmt.Errorf("view digest inconsistent with relayed entries")
}

// mergeLenient folds a received view in without any checking: slots we
// lack are adopted, conflicts are ignored. Byzantine (SkipChecks) nodes
// use it so they keep participating without self-reporting.
func (g *blockView) mergeLenient(rv wire.FrameView) {
	if rv.Validate() != nil || int(rv.Base) != g.sc.Start ||
		int(rv.Size) != g.sc.Size() || int(rv.BlockLen) != g.m {
		return
	}
	i := 0
	rv.Mask.Each(func(idx int) bool {
		if !g.have.Has(idx) {
			g.have.Add(idx)
			// Even a checks-skipping node keeps its slot digests
			// consistent with what it holds, so the aggregates it
			// relays match its entries.
			g.slotDig[idx] = rv.Block(i, g.blocks[idx])
		}
		i++
		return true
	})
}
