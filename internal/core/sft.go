// Package core implements S_FT, the paper's primary contribution: the
// fault-tolerant distributed bitonic sort built with the
// application-oriented fault tolerance paradigm (Figure 3).
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
package core

import (
	"fmt"

	"repro/internal/hypercube"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Options tunes one node's S_FT program. The zero value is the honest
// protocol.
type Options struct {
	// Tamper, when non-nil, intercepts every outgoing message just
	// before transmission, modelling a Byzantine processor. It may
	// mutate the message, return a replacement, or return nil to stay
	// silent. From/To are stamped before the call so strategies can
	// vary by receiver (the split-lie attack Φ_C exists to catch).
	Tamper func(m *wire.Message) *wire.Message
	// Compare, when non-nil, replaces the node's compare-exchange
	// comparator: Compare(stage, a, b) reports whether a orders at or
	// before b. A lying comparator models Geissmann et al.'s faulty
	// comparisons — the node runs the schedule faithfully but routes
	// keys by wrong answers, which honest partners must catch at the
	// application level (misordered replies, Φ_P violations). Nil is
	// the honest machine comparator.
	Compare func(stage int, a, b int64) bool
	// CorruptMemory, when non-nil, is invoked at every stage boundary
	// (stages >= 1 and before the final verification round, with the
	// cube dimension as the stage label) on the node's resident key
	// slice, modelling Kopelowitz & Talmon's faulty memory: cells that
	// corrupt between accesses. The hook may mutate the slice in
	// place; the node then proceeds honestly on the corrupted state.
	CorruptMemory func(stage int, keys []int64)
	// SkipChecks disables the node's own executable assertions: a
	// malicious processor does not report itself. Honest peers are
	// the ones expected to detect it.
	SkipChecks bool
	// Forensic, when non-nil, is this node's flight recorder: predicate
	// evaluations, view merges, and accusations are recorded alongside
	// the transport's send/recv events, and a predicate failure
	// triggers a forensic dump of every ring. Use the same
	// forensic.Flight the transport was configured with so causal
	// chains cross the wire. Recording reads the endpoint clock but
	// never charges it, and appends are allocation-free, so attaching a
	// recorder perturbs neither virtual time nor the zero-alloc
	// exchange path.
	Forensic *forensic.Recorder
	// Obs, when non-nil, receives stage/round spans, Φ evaluations,
	// accusations, and stage views. Recording reads the endpoint clock
	// but never charges it, so virtual-time results are identical with
	// and without an observer; all Observer methods are nil-safe and
	// allocation-free, so the steady-state exchange path stays
	// zero-allocation.
	Obs *obs.Observer

	// The remaining flags are ablation switches used to quantify how
	// much each mechanism of the paradigm contributes (DESIGN.md §5).
	// Production callers leave them false.

	// TrustSenderMasks skips the vect_mask validation of claimed
	// knowledge masks in Φ_C: any mask the sender claims is believed.
	// Detection of fabrication/withholding then falls to later
	// conflict or completeness checks — the ablation measures the
	// added detection latency.
	TrustSenderMasks bool
	// SkipFinalVerification drops the final pure-exchange round. The
	// last stage's output is then unchecked, and a last-stage lie
	// becomes silent corruption — the ablation that shows why the
	// paper adds the extra round.
	SkipFinalVerification bool
	// SeparateCheckMessages sends each view in its own message after
	// the compare-exchange keys instead of piggybacking, doubling the
	// main-loop message count. The ablation quantifies the messaging
	// overhead piggybacking avoids. All nodes of a run must agree on
	// this flag.
	SeparateCheckMessages bool
}

// NodeProgram returns the S_FT program for one node with initial key
// key. On successful completion the node's final key is written to
// *out (each node writes only its own slot).
func NodeProgram(key int64, out *int64, opts Options) node.Program {
	return func(ep transport.Endpoint) error {
		r := &sftRunner{}
		r.Protocol = NewProtocol(ep, r, opts)
		a, err := r.run(key)
		if err != nil {
			return err
		}
		*out = a
		return nil
	}
}

// sftRunner is S_FT's kernel over the shared Protocol shell: one key
// per node, so its view holds one value per subcube slot and each
// exchange is a compare-exchange of two keys.
type sftRunner struct {
	Protocol // also holds the node's Options (r.opts)

	// Per-node arenas reused across every stage and iteration so the
	// steady-state exchange path performs no allocation: the gather
	// view and the two-key send buffer (the shell holds the codec
	// scratch).
	view   gatherView
	keyBuf [2]int64
}

// WireView, MergeView and ViewDigest implement Kernel over the gather
// view.
func (r *sftRunner) WireView(scratch []int64) wire.View { return r.view.wireViewInto(scratch) }

func (r *sftRunner) ViewDigest() wire.Digest { return r.view.viewDigest() }

func (r *sftRunner) run(key int64) (int64, error) {
	id := r.ep.ID()
	topo := r.ep.Topology()
	n := topo.Dim()
	a := key
	if n == 0 {
		return a, nil // a single node is trivially sorted
	}

	// prevSeq is the verified output of stage s-2 over prevSC = SC_s,
	// i.e. the paper's LLBS; prevDig is its multiset digest, saved at
	// the previous stage boundary so Φ_F's common case is an O(1)
	// digest comparison against the matching half of the current view.
	var prevSeq []int64
	var prevSC hypercube.Subcube
	var prevDig wire.Digest

	for s := 0; s < n; s++ {
		// Faulty-memory hook: the resident key may corrupt between
		// stages (never before the first exchange, per environmental
		// assumption 5 — a stage-0 corruption would be different input).
		if r.opts.CorruptMemory != nil && s > 0 {
			a = r.corrupt(s, a)
		}
		stageVT := r.BeginStage(s)
		sc, err := topo.HomeSubcube(s+1, id)
		if err != nil {
			return 0, fmt.Errorf("core: %w", err)
		}
		r.view.reset(sc)
		r.view.set(id, a) // seed LBS with this stage's starting value
		for j := s; j >= 0; j-- {
			r.opts.Obs.RoundBegin(id, s, j, int64(r.ep.Clock()))
			a, err = r.ftExchange(a, s, j)
			if err != nil {
				return 0, err
			}
			r.opts.Obs.RoundEnd(id, s, j, int64(r.ep.Clock()))
		}
		if err := r.CheckGather(r.view.have, s); err != nil {
			return 0, err
		}
		assembled := r.view.values()
		if s > 0 && !r.opts.SkipChecks {
			// bit_compare: Φ_P over the assembled previous-stage
			// output, Φ_F over this node's half against LLBS. The
			// charges reflect Lemma 8's O(2^i) bound. The view keeps one
			// digest per half of the home subcube, and prevSC is exactly
			// one of those halves.
			if err := r.CheckProgress(s, len(assembled), Progress(assembled, false)); err != nil {
				return 0, err
			}
			half := 1
			if prevSC.Start == sc.Start {
				half = 0
			}
			if err := r.CheckFeasibility(s, r.view.halfDig(half), prevDig,
				prevSeq, halfContaining(assembled, sc, prevSC)); err != nil {
				return 0, err
			}
		}
		r.ep.ChargeKeyMove(len(assembled)) // LLBS update
		r.EndStage(s, stageVT, sc, 1, assembled)
		prevSeq, prevSC, prevDig = assembled, sc, r.view.viewDigest()
	}

	if r.opts.SkipFinalVerification {
		// Ablation: the last stage's output goes unchecked.
		return a, nil
	}

	// Faulty memory can also strike between the last stage and the
	// final verification round — the corruption Theorem 3's extra
	// round exists to expose.
	if r.opts.CorruptMemory != nil {
		a = r.corrupt(n, a)
	}

	// Final verification: a pure exchange of the final sorted values
	// over the whole cube, then the last bit_compare.
	finalVT := r.BeginStage(n)
	scAll, err := topo.HomeSubcube(n, id)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	r.view.reset(scAll)
	r.view.set(id, a)
	if err := r.VerifyRound(n); err != nil {
		return 0, err
	}
	if err := r.CheckGather(r.view.have, n); err != nil {
		return 0, err
	}
	finalSeq := r.view.values()
	if !r.opts.SkipChecks {
		if err := r.CheckProgress(n, len(finalSeq), Progress(finalSeq, true)); err != nil {
			return 0, err
		}
		// Final Φ_F: the verification round re-gathers the whole cube,
		// so the full view digest stands in for the permutation scan.
		if err := r.CheckFeasibility(n, r.view.viewDigest(), prevDig, prevSeq, finalSeq); err != nil {
			return 0, err
		}
	}
	r.EndStage(n, finalVT, scAll, 1, finalSeq)
	return a, nil
}

// corrupt passes the resident key through the faulty-memory hook.
func (r *sftRunner) corrupt(stage int, a int64) int64 {
	r.keyBuf[0] = a
	r.opts.CorruptMemory(stage, r.keyBuf[:1])
	return r.keyBuf[0]
}

// halfContaining slices the assembled sequence (over sc) down to the
// node's own previous home subcube prevSC.
func halfContaining(assembled []int64, sc, prevSC hypercube.Subcube) []int64 {
	lo := prevSC.Start - sc.Start
	hi := lo + prevSC.Size()
	return assembled[lo:hi]
}

// ftExchange performs the stage-s iteration-j compare-exchange of
// Figure 3, with the piggybacked view merge (Φ_C) on both sides, and
// returns the node's new key.
func (r *sftRunner) ftExchange(a int64, s, j int) (int64, error) {
	id := r.ep.ID()
	topo := r.ep.Topology()
	partner, err := topo.Partner(id, j)
	if err != nil {
		return 0, fmt.Errorf("core: %w", err)
	}
	ascending := topo.Ascending(s, id)

	if hypercube.Active(id, j) {
		// Active side: receive the partner's key and pre-merge view,
		// run Φ_C, compare-exchange, and reply with both keys and the
		// merged (echoed) view.
		keys, rv, ok, err := r.recvParts(j, s, partner)
		if err != nil {
			return 0, err
		}
		var data int64
		haveData := false
		if ok {
			if len(keys) != 1 && !r.opts.SkipChecks {
				return 0, r.FailFrom(ErrProtocol, s, j, partner, "expected 1 key from %d, got %d", partner, len(keys))
			}
			if len(keys) == 1 {
				data = keys[0]
				haveData = true
			}
			if err := r.MergeView(rv, s, j, partner, false); err != nil {
				return 0, err
			}
			// At the stage's first iteration the passive node's key must
			// match its seeded view entry: its stage-start value.
			if j == s && !r.opts.SkipChecks && haveData {
				if idx := partner - r.view.sc.Start; r.view.have.Has(idx) && r.view.vals[idx] != data {
					return 0, r.FailFrom(ErrProtocol, s, j, partner,
						"node %d sent key %d but its view claims %d", partner, data, r.view.vals[idx])
				}
			}
		}
		if !haveData {
			// No usable key (only possible for SkipChecks nodes);
			// degrade to keeping our own value.
			data = a
		}
		r.ep.ChargeCompare(1)
		leq := data <= a
		if r.opts.Compare != nil {
			leq = r.opts.Compare(s, data, a)
		}
		lo, hi := data, a
		if !leq {
			lo, hi = a, data
		}
		keep, give := lo, hi
		if !ascending {
			keep, give = hi, lo
		}
		r.keyBuf[0], r.keyBuf[1] = keep, give
		if err := r.sendParts(j, s, r.keyBuf[:2]); err != nil {
			return 0, err
		}
		return keep, nil
	}

	// Passive side: send our key and current view, then adopt the
	// returned key after validating the pair.
	r.keyBuf[0] = a
	if err := r.sendParts(j, s, r.keyBuf[:1]); err != nil {
		return 0, err
	}
	return r.passiveReply(a, s, j, partner, ascending)
}

// passiveReply receives the active partner's reply to our key, merges
// its echoed view, and validates the returned pair before adopting the
// key the schedule gives us.
func (r *sftRunner) passiveReply(a int64, s, j, partner int, ascending bool) (int64, error) {
	keys, rv, ok, err := r.recvParts(j, s, partner)
	if err != nil {
		return 0, err
	}
	if !ok {
		return a, nil // SkipChecks node tolerating a dead partner
	}
	if len(keys) != 2 {
		if r.opts.SkipChecks {
			return a, nil
		}
		return 0, r.FailFrom(ErrProtocol, s, j, partner, "expected 2 keys from %d, got %d", partner, len(keys))
	}
	if err := r.MergeView(rv, s, j, partner, true); err != nil {
		return 0, err
	}
	keep, give := keys[0], keys[1]
	if !r.opts.SkipChecks {
		// The returned pair must contain our contributed key and be
		// oriented per the schedule's direction.
		if keep != a && give != a {
			return 0, r.FailFrom(ErrProtocol, s, j, partner,
				"compare-exchange reply (%d,%d) from %d lost our key %d", keep, give, partner, a)
		}
		if ascending && keep > give {
			return 0, r.FailFrom(ErrProtocol, s, j, partner,
				"ascending compare-exchange reply (%d,%d) from %d misordered", keep, give, partner)
		}
		if !ascending && keep < give {
			return 0, r.FailFrom(ErrProtocol, s, j, partner,
				"descending compare-exchange reply (%d,%d) from %d misordered", keep, give, partner)
		}
		// At the stage's first iteration we also know the active
		// node's stage-start value from the echoed view, so the whole
		// compare-exchange is verifiable.
		if j == s {
			if idx := partner - r.view.sc.Start; r.view.have.Has(idx) {
				other := r.view.vals[idx]
				lo, hi := other, a
				if lo > hi {
					lo, hi = hi, lo
				}
				wantKeep, wantGive := lo, hi
				if !ascending {
					wantKeep, wantGive = hi, lo
				}
				if keep != wantKeep || give != wantGive {
					return 0, r.FailFrom(ErrProtocol, s, j, partner,
						"compare-exchange of (%d,%d) by %d returned (%d,%d), want (%d,%d)",
						other, a, partner, keep, give, wantKeep, wantGive)
				}
			}
		}
	}
	return give, nil
}

// sendParts transmits one compare-exchange leg: keys plus view,
// piggybacked in one message normally, or as two messages under the
// SeparateCheckMessages ablation.
func (r *sftRunner) sendParts(bit, s int, keys []int64) error {
	if !r.opts.SeparateCheckMessages {
		return r.SendFT(bit, s, keys)
	}
	if err := r.sendKeys(bit, s, keys); err != nil {
		return err
	}
	return r.sendVerify(bit, s)
}

// recvParts receives one compare-exchange leg in whichever framing the
// run uses. ok is false only for SkipChecks nodes tolerating garbage.
// Returned keys and view alias the shell's decode scratch; both are
// consumed before the next receive.
func (r *sftRunner) recvParts(bit, s, partner int) (keys []int64, v wire.View, ok bool, err error) {
	if !r.opts.SeparateCheckMessages {
		p, ok, err := r.RecvFT(bit, s, partner)
		return p.Keys, p.View, ok, err
	}
	// The keys land in the scratch's key buffer and the view in its
	// separate view buffers, so the second decode does not clobber the
	// first.
	kp, ok, err := recvPayload(&r.Protocol, bit, wire.KindExchange, s, partner, "keys", wire.DecodeExchangeInto)
	if err != nil || !ok {
		return nil, wire.View{}, false, err
	}
	vp, ok, err := recvPayload(&r.Protocol, bit, wire.KindVerify, s, partner, "view", wire.DecodeVerifyInto)
	return kp.Keys, vp.View, ok, err
}

// MergeView folds a received view into the local one under Φ_C. The
// expected knowledge mask is the vect_mask prediction: pre-exchange
// knowledge when the sender is the passive party (postExchange false),
// post-exchange knowledge when the sender is the active party echoing
// its merged view (postExchange true).
func (r *sftRunner) MergeView(rv wire.View, s, j, sender int, postExchange bool) error {
	view := &r.view
	if r.opts.SkipChecks {
		// Φ_C work is linear in the received entries plus the
		// vect_mask evaluation (Lemma 9's O(2^{j+1} + 2^{i-j}) bound).
		r.ep.ChargeCompare(rv.Mask.Count())
		view.mergeLenient(rv)
		r.opts.Forensic.Merge(int32(s), int32(j), int64(rv.Mask.Count()),
			view.viewDigest(), int64(r.ep.Clock()))
		return nil
	}
	if r.opts.TrustSenderMasks {
		// Ablation: believe any claimed mask; only overlap conflicts
		// are still checked, entry by entry.
		r.ep.ChargeCompare(rv.Mask.Count())
		merr := view.mergeTrusting(rv)
		r.opts.Forensic.Merge(int32(s), int32(j), int64(rv.Mask.Count()),
			view.viewDigest(), int64(r.ep.Clock()))
		return r.CheckMerge(s, j, sender, merr)
	}
	expected, err := r.ExpectedMask(s, j, sender, view.sc, postExchange)
	if err != nil {
		return err
	}
	outcome, merr := view.mergeChecked(rv, expected)
	// Charge what the merge actually did: a digest hit replaces the
	// entry walk with two word comparisons; a miss pays both; when the
	// fast path does not apply the cost is the entry walk.
	switch outcome {
	case DigestHit:
		r.ep.ChargeCompare(wire.DigestCompareCost)
		r.opts.Obs.DigestCheck(true)
	case DigestMiss:
		r.ep.ChargeCompare(wire.DigestCompareCost + rv.Mask.Count())
		r.opts.Obs.DigestCheck(false)
		r.opts.Obs.DigestSlowScan()
	default:
		r.ep.ChargeCompare(rv.Mask.Count())
	}
	r.opts.Forensic.Merge(int32(s), int32(j), int64(rv.Mask.Count()),
		view.viewDigest(), int64(r.ep.Clock()))
	return r.CheckMerge(s, j, sender, merr)
}
