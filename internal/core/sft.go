// Package core implements S_FT, the paper's primary contribution: the
// fault-tolerant distributed bitonic sort built with the
// application-oriented fault tolerance paradigm (Figure 3), together
// with its Section 5 scaling to blocks of m keys per node.
//
// The algorithm runs the bitonic schedule of S_NR unchanged, but every
// message additionally piggybacks the sender's partial view of the
// previous stage's output sequence (the LBS). Views spread through the
// same exchanges the sort already performs; because every pair
// exchange echoes the merged view back, each value travels to each
// checker along vertex-disjoint paths, and any two copies that meet
// must agree (Φ_C). At the end of each stage the fully assembled
// previous-stage sequence is checked for shape (Φ_P) and for being a
// permutation of the stage before it (Φ_F). A final pure-exchange
// round verifies the last stage's output. The result is fail-stop
// behaviour from Byzantine parts: the sort completes correctly or some
// honest node signals ERROR to the host and halts — it never silently
// delivers a wrong permutation (Theorem 3).
//
// With m keys per node the message structure is the same: each
// compare-exchange becomes a merge-split of 2m keys, each view slot
// holds a node's whole block, and each predicate Φ scales by m. There
// is one runner for every m; S_FT's one key per node is the m = 1
// case (Run, RunWithOptions, NodeProgram) and RunBlocks takes m keys
// per node.
package core

import (
	"fmt"
	"slices"

	"repro/internal/bitonic"
	"repro/internal/bitset"
	"repro/internal/hypercube"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Options tunes one node's program. The zero value is the honest
// protocol.
type Options struct {
	// Tamper, when non-nil, intercepts every outgoing message just
	// before transmission, modelling a Byzantine processor. It may
	// mutate the message, return a replacement, or return nil to stay
	// silent. From/To are stamped before the call so strategies can
	// vary by receiver (the split-lie attack Φ_C exists to catch).
	Tamper func(m *wire.Message) *wire.Message
	// Compare, when non-nil, replaces the node's merge-split
	// comparator: Compare(stage, a, b) reports whether a orders at or
	// before b. A lying comparator models Geissmann et al.'s faulty
	// comparisons — the node runs the schedule faithfully but routes
	// keys by wrong answers, which honest partners must catch at the
	// application level (misordered replies, Φ_P violations). Nil is
	// the honest machine comparator.
	Compare func(stage int, a, b int64) bool
	// CorruptMemory, when non-nil, is invoked at every stage boundary
	// (stages >= 1 and before the final verification round, with the
	// cube dimension as the stage label) on the node's resident block,
	// modelling Kopelowitz & Talmon's faulty memory: cells that
	// corrupt between accesses. The hook may mutate the block in
	// place; the node then proceeds honestly on the corrupted state.
	CorruptMemory func(stage int, keys []int64)
	// SkipChecks disables the node's own executable assertions: a
	// malicious processor does not report itself. Honest peers are
	// the ones expected to detect it.
	SkipChecks bool
	// Forensic, when non-nil, is this node's flight recorder: predicate
	// evaluations, view merges, merge-splits and accusations are
	// recorded alongside the transport's send/recv events, and a
	// predicate failure triggers a forensic dump of every ring. Use the
	// same forensic.Flight the transport was configured with so causal
	// chains cross the wire. Recording reads the endpoint clock but
	// never charges it, and appends are allocation-free, so attaching a
	// recorder perturbs neither virtual time nor the zero-alloc
	// exchange path.
	Forensic *forensic.Recorder
	// Obs, when non-nil, receives stage/round spans, Φ evaluations,
	// merge-split compare counts, accusations, and stage views.
	// Recording reads the endpoint clock but never charges it, so
	// virtual-time results are identical with and without an observer;
	// all Observer methods are nil-safe and allocation-free, so the
	// steady-state exchange path stays zero-allocation.
	Obs *obs.Observer
	// Parallelism caps the worker count for the data-parallel
	// merge-split and local-sort paths: <= 0 means GOMAXPROCS. Worker
	// count never changes outputs or charged comparison counts — the
	// parallel merges are bit-identical to their sequential
	// counterparts — only wall-clock time.
	Parallelism int

	// The remaining flags are ablation switches used to quantify how
	// much each mechanism of the paradigm contributes (DESIGN.md §5).
	// Production callers leave them false.

	// TrustSenderMasks skips the vect_mask validation of claimed
	// knowledge masks in Φ_C: any mask the sender claims is believed.
	// Detection of fabrication/withholding then falls to the conflict
	// and digest checks or later completeness checks — the ablation
	// measures the added detection latency.
	TrustSenderMasks bool
	// SkipFinalVerification drops the final pure-exchange round. The
	// last stage's output is then unchecked, and a last-stage lie
	// becomes silent corruption — the ablation that shows why the
	// paper adds the extra round.
	SkipFinalVerification bool
	// SeparateCheckMessages sends each view in its own message after
	// the exchange keys instead of piggybacking, doubling the main-loop
	// message count. The ablation quantifies the messaging overhead
	// piggybacking avoids. All nodes of a run must agree on this flag.
	SeparateCheckMessages bool
}

// NodeProgram returns the S_FT program for one node with initial key
// key: the m = 1 case of the runner RunBlocks runs on every node. On
// successful completion the node's final key is written to *out (each
// node writes only its own slot).
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

// runNode runs the node at ep holding block, m = len(block) keys, and
// on success writes its sorted block to out (len m), its own slot of
// the run's output; block and out may alias.
func runNode(ep transport.Endpoint, block, out []int64, opts Options) error {
	r := &runner{ep: ep, opts: opts, m: len(block)}
	mine, err := r.run(block)
	if err != nil {
		return err
	}
	copy(out, mine)
	return nil
}

// runner is one node's fault-tolerant sort: the stage loop, the
// merge-split exchange with its reply checks, and (protocol.go) the
// shell of evidence, framing, checked receive, Φ_C merge and the
// verification round.
type runner struct {
	ep   transport.Endpoint
	opts Options
	m    int

	// Per-node arenas reused across every stage and iteration, all
	// sized once when the run starts, so the steady-state exchange path
	// performs no allocation: the two block views, the two alternating
	// merge-split buffers, the keep·give send staging buffer, the
	// merge-split verification scratch, the wire-view Vals staging
	// area, the payload encoding and zero-copy decode scratch, and the
	// vect_mask prediction scratch.
	//
	// Stage s gathers into views[s%2] (view points at it), and the final
	// round into views[n%2]. Alternating leaves the previous stage's
	// verified sequence intact in the other view's arena, where Φ_F and
	// the stage-view stream read it as a sub-slice instead of a copy.
	views    [2]blockView
	view     *blockView
	bufs     [2][]int64
	cur      int
	keyStage []int64
	msCheck  []int64
	wvVals   []int64
	enc      []byte
	dec      wire.DecodeScratch
	expect   bitset.Set
}

// reserve sizes every arena once: the views and the wire-view staging
// for the whole cube scAll, since each stage's subcube is a slot range
// of it; the encode buffer for the largest payload, a full view plus
// the 2m keys of a merge-split reply; the merge-split scratches for 2m.
// One allocation holds every key arena, one both views' block headers
// and one both views' slot digests.
func (r *runner) reserve(scAll hypercube.Subcube) {
	slots, m := scAll.Size(), r.m
	keys := make([]int64, 3*slots*m+8*m)
	blocks := make([][]int64, 2*slots)
	digs := make([]wire.Digest, 2*slots)
	carve := func(k int) []int64 {
		s := keys[:k:k]
		keys = keys[k:]
		return s
	}
	for i := range r.views {
		v := &r.views[i]
		v.data = carve(slots * m)
		v.blocks = blocks[i*slots : (i+1)*slots : (i+1)*slots]
		v.slotDig = digs[i*slots : (i+1)*slots : (i+1)*slots]
		v.reset(scAll, m)
	}
	r.wvVals = carve(slots * m)[:0]
	r.bufs[0], r.bufs[1] = carve(2 * m)[:0], carve(2 * m)[:0]
	r.keyStage, r.msCheck = carve(2 * m)[:0], carve(2 * m)[:0]
	r.enc = make([]byte, 0, 4+8*2*m+wire.ViewEncodedSize(slots, slots, m))
}

// nextBuf flips to the merge-split buffer NOT holding the node's
// current block and returns it (cap 2m, length 0). Alternating between
// two buffers lets a merge-split write its output while reading the
// current block from the other.
func (r *runner) nextBuf() []int64 {
	r.cur = 1 - r.cur
	return r.bufs[r.cur][:0]
}

// localSort sorts the node's block ascending in place and charges the
// endpoint the comparison cost. The charged count is identical for
// every worker count.
func (r *runner) localSort(b []int64) {
	sorted, compares := bitonic.ParallelMergeSortCount(b, r.opts.Parallelism)
	copy(b, sorted)
	r.ep.ChargeCompare(compares)
	r.ep.ChargeKeyMove(len(b))
}

func (r *runner) run(block []int64) ([]int64, error) {
	id := r.ep.ID()
	topo := r.ep.Topology()
	n := topo.Dim()
	scAll, err := topo.HomeSubcube(n, id)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	r.reserve(scAll)
	mine := r.bufs[r.cur][:r.m]
	copy(mine, block)
	r.localSort(mine)
	if n == 0 {
		return mine, nil // a single node is trivially sorted
	}

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
		stageVT := r.beginStage(s)
		sc, err := topo.HomeSubcube(s+1, id)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		view := &r.views[s%2]
		r.view = view
		view.reset(sc, r.m)
		view.set(id, mine) // seed LBS with this stage's starting block
		for j := s; j >= 0; j-- {
			r.opts.Obs.RoundBegin(id, s, j, int64(r.ep.Clock()))
			mine, err = r.exchange(mine, s, j)
			if err != nil {
				return nil, err
			}
			r.opts.Obs.RoundEnd(id, s, j, int64(r.ep.Clock()))
		}
		if err := r.checkGather(s); err != nil {
			return nil, err
		}
		if s > 0 && !r.opts.SkipChecks {
			// bit_compare: Φ_P over the assembled previous-stage output
			// (Lemma 8's O(2^i·m) bound), Φ_F over this node's previous
			// home subcube against LLBS. That subcube is a contiguous
			// slot range of this stage's view, so its multiset digest
			// folds from the stored per-slot digests in O(slots).
			if err := r.checkProgress(s, sc.Size()*r.m, ProgressBlocks(view.blocks, false)); err != nil {
				return nil, err
			}
			lo := prevSC.Start - sc.Start
			hi := lo + prevSC.Size()
			if err := r.checkFeasibility(s, view.rangeDigest(lo, hi), prevDig, prevFlat, view.seq(lo, hi)); err != nil {
				return nil, err
			}
		}
		prevFlat = view.seq(0, sc.Size())
		prevDig = view.digest()
		r.ep.ChargeKeyMove(len(prevFlat)) // LLBS update
		r.endStage(s, stageVT, sc, prevFlat)
		prevSC = sc
	}

	if r.opts.SkipFinalVerification {
		// Ablation: the last stage's output goes unchecked.
		return mine, nil
	}

	// Faulty memory can also strike between the last stage and the
	// final verification round — the corruption Theorem 3's extra
	// round exists to expose.
	if r.opts.CorruptMemory != nil {
		r.opts.CorruptMemory(n, mine)
	}

	// Final verification: a pure exchange of the final sorted blocks
	// over the whole cube, then the last bit_compare.
	finalVT := r.beginStage(n)
	view := &r.views[n%2]
	r.view = view
	view.reset(scAll, r.m)
	view.set(id, mine)
	if err := r.verifyRound(n); err != nil {
		return nil, err
	}
	if err := r.checkGather(n); err != nil {
		return nil, err
	}
	finalSeq := view.seq(0, scAll.Size())
	if !r.opts.SkipChecks {
		if err := r.checkProgress(n, len(finalSeq), ProgressBlocks(view.blocks, true)); err != nil {
			return nil, err
		}
		// Final Φ_F: the verification round re-gathers the whole cube,
		// so the full view digest stands in for the permutation scan.
		if err := r.checkFeasibility(n, view.digest(), prevDig, prevFlat, finalSeq); err != nil {
			return nil, err
		}
	}
	r.endStage(n, finalVT, scAll, finalSeq)
	return mine, nil
}

// exchange performs the stage-s iteration-j merge-split of Figure 3
// scaled by m, with the piggybacked view merge (Φ_C) on both sides, and
// returns the node's new block.
func (r *runner) exchange(mine []int64, s, j int) ([]int64, error) {
	id := r.ep.ID()
	topo := r.ep.Topology()
	partner, err := topo.Partner(id, j)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	ascending := topo.Ascending(s, id)

	if !hypercube.Active(id, j) {
		// Passive side: send our block and current view, then adopt the
		// returned half after validating the merge-split.
		if err := r.sendParts(j, s, mine); err != nil {
			return nil, err
		}
		return r.passiveReply(mine, s, j, partner, ascending)
	}

	// Active side: receive the partner's block and pre-merge view, run
	// Φ_C, merge-split, and reply with both halves and the merged
	// (echoed) view.
	keys, rv, ok, err := r.recvParts(j, s, partner)
	if err != nil {
		return nil, err
	}
	theirs := mine // degenerate fallback for SkipChecks nodes
	if ok {
		if len(keys) != r.m && !r.opts.SkipChecks {
			return nil, r.failFrom(ErrProtocol, s, j, partner, "expected %d keys from %d, got %d", r.m, partner, len(keys))
		}
		if len(keys) == r.m {
			theirs = keys
		}
		if err := r.mergeView(rv, s, j, partner, false); err != nil {
			return nil, err
		}
		if !r.opts.SkipChecks && !bitonic.IsSorted(theirs, true) {
			return nil, r.failFrom(ErrProtocol, s, j, partner, "block from %d not sorted", partner)
		}
		// At the stage's first iteration the sender's block and its own
		// relayed view entry are both its stage-start block;
		// disagreement proves the sender lied about one of them (Φ_C,
		// with the liar named).
		if !r.opts.SkipChecks && j == s {
			if idx := partner - r.view.sc.Start; r.view.have.Has(idx) && !slices.Equal(theirs, r.view.blocks[idx]) {
				return nil, r.failFrom(ErrConsistency, s, j, partner,
					"stage-start keys from %d disagree with its relayed view entry", partner)
			}
		}
	}
	// Merge into the buffer not holding mine; theirs may still alias
	// the decode scratch, which the merge-split only reads.
	var lo, hi []int64
	var compares int
	var merr error
	if r.opts.Compare != nil {
		lo, hi, compares, merr = bitonic.MergeSplitFuncInto(r.nextBuf(), mine, theirs,
			func(a, b int64) bool { return r.opts.Compare(s, a, b) })
	} else {
		lo, hi, compares, merr = bitonic.MergeSplitParallelInto(r.nextBuf(), mine, theirs, r.opts.Parallelism)
	}
	if merr != nil {
		return nil, fmt.Errorf("core: %w", merr)
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
	if err := r.sendParts(j, s, r.keyStage); err != nil {
		return nil, err
	}
	return keep, nil
}

// passiveReply receives the active partner's merge-split reply,
// merges its echoed view, and validates both halves before adopting
// the one the schedule gives us.
func (r *runner) passiveReply(mine []int64, s, j, partner int, ascending bool) ([]int64, error) {
	keys, rv, ok, err := r.recvParts(j, s, partner)
	if err != nil {
		return nil, err
	}
	if !ok {
		return mine, nil // SkipChecks node tolerating a dead partner
	}
	if len(keys) != 2*r.m {
		if r.opts.SkipChecks {
			return mine, nil
		}
		return nil, r.failFrom(ErrProtocol, s, j, partner, "expected %d keys from %d, got %d", 2*r.m, partner, len(keys))
	}
	if err := r.mergeView(rv, s, j, partner, true); err != nil {
		return nil, err
	}
	keep, give := keys[:r.m], keys[r.m:]
	if !r.opts.SkipChecks {
		if !bitonic.IsSorted(keep, true) || !bitonic.IsSorted(give, true) {
			return nil, r.failFrom(ErrProtocol, s, j, partner, "merge-split reply from %d has unsorted halves", partner)
		}
		if ascending && keep[r.m-1] > give[0] {
			return nil, r.failFrom(ErrProtocol, s, j, partner,
				"ascending merge-split reply from %d misordered (%d > %d)", partner, keep[r.m-1], give[0])
		}
		if !ascending && keep[0] < give[r.m-1] {
			return nil, r.failFrom(ErrProtocol, s, j, partner,
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
						return nil, r.failFrom(ErrProtocol, s, j, partner,
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
