package core

import (
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the protocol shell of the runner: everything the
// paradigm does the same way whatever block length a node holds. It
// turns evidence into ERROR signals, frames, tampers and sends
// messages, receives them with their headers checked, folds views in
// under Φ_C, runs the final verification round's exchanges, and
// evaluates Φ_P, Φ_F and the gather-completeness part of Φ_C once the
// stage loop has computed them.
//
// What the shell charges the endpoint is part of the pinned
// virtual-time series, and its steady-state exchange path allocates
// nothing.

// endStage counts a completed stage, begun at virtual time begunVT.
func (r *runner) endStage(begunVT int64) {
	r.opts.Obs.StageEnd(int64(r.ep.Clock()) - begunVT)
}

// --- evidence ----------------------------------------------------------------

// fail signals shape evidence (no accused node); failFrom signals
// evidence that implicates a sender, failAbsent a missing message.
func (r *runner) fail(kind error, stage, iter int, format string, args ...any) error {
	return r.failEvidence(kind, KindShape, stage, iter, -1, format, args...)
}

func (r *runner) failFrom(kind error, stage, iter, accused int, format string, args ...any) error {
	return r.failEvidence(kind, KindValue, stage, iter, accused, format, args...)
}

func (r *runner) failAbsent(kind error, stage, iter, accused int, format string, args ...any) error {
	return r.failEvidence(kind, KindAbsence, stage, iter, accused, format, args...)
}

// failEvidence constructs the node's predicate error, signals ERROR
// (with the evidence kind and accused node) to the host — the reliable
// diagnostic channel of the paradigm — and returns the error so the
// node fail-stops.
func (r *runner) failEvidence(kind error, ev ErrorKind, stage, iter, accused int, format string, args ...any) error {
	if accused >= 0 {
		r.opts.Obs.Accusation()
	}
	pe := &PredicateError{
		Node:     r.ep.ID(),
		Stage:    stage,
		Iter:     iter,
		Kind:     kind,
		Evidence: ev,
		Accused:  accused,
		Detail:   fmt.Sprintf(format, args...),
	}
	// The accusation is recorded (and the forensic dump taken) before
	// the ERROR signal leaves, so the report's rings cannot contain the
	// signalling itself — only the evidence that led to it.
	r.opts.Forensic.Accuse(forensic.PredCode(PredicateName(kind)), uint8(ev),
		int32(stage), int32(iter), int32(accused), pe.Detail, int64(r.ep.Clock()))
	// Host signalling is best-effort: the host link is reliable by
	// assumption, but a full mailbox must not mask the local error.
	_ = r.ep.SendHost(wire.Message{
		Kind:  wire.KindError,
		Stage: int32(stage),
		Iter:  int32(iter),
		Payload: wire.EncodeError(wire.ErrorPayload{
			Predicate: PredicateName(kind),
			Kind:      uint8(ev),
			Accused:   int32(accused),
			Detail:    pe.Detail,
		}),
	})
	return pe
}

// phiCheck counts one constraint-predicate evaluation in the observer
// and records it in the flight recorder, which files it with the
// current view's digest.
func (r *runner) phiCheck(phi obs.Phi, stage, iter int, pass bool) {
	r.opts.Obs.PhiCheck(phi, pass)
	if r.opts.Forensic != nil {
		r.opts.Forensic.Phi(uint8(phi), int32(stage), int32(iter), pass,
			r.view.digest(), int64(r.ep.Clock()))
	}
}

// --- predicates ----------------------------------------------------------------

// checkGather is the completeness part of Φ_C at the end of a stage or
// of the final round (stage label = cube dimension): every slot of the
// current view must have been collected.
func (r *runner) checkGather(stage int) error {
	if r.opts.SkipChecks || r.view.complete() {
		return nil
	}
	r.phiCheck(obs.PhiC, stage, -1, false)
	what := "stage"
	if stage == r.ep.Topology().Dim() {
		what = "final"
	}
	return r.fail(ErrConsistency, stage, -1, "%s gather incomplete: mask %s", what, r.view.have.String())
}

// checkProgress charges cost compares for Φ_P, reports the evaluation,
// and turns a violation err (ProgressBlocks' result) into shape
// evidence.
func (r *runner) checkProgress(stage, cost int, err error) error {
	r.ep.ChargeCompare(cost)
	return r.verdict(obs.PhiP, ErrProgress, stage, err)
}

// checkFeasibility is Φ_F: cur, this stage's copy of the previous
// stage's output, must be a permutation of prev, the verified sequence
// saved then. got and want are their multiset digests. Equal multisets
// always digest equally, so a match accepts in O(1), and a mismatch
// proves a real difference; the element scan then runs only to produce
// the attribution evidence, and whatever it reports is the verdict.
func (r *runner) checkFeasibility(stage int, got, want wire.Digest, prev, cur []int64) error {
	r.ep.ChargeCompare(wire.DigestCompareCost)
	var err error
	if got == want {
		r.opts.Obs.DigestCheck(true)
	} else {
		r.opts.Obs.DigestCheck(false)
		r.ep.ChargeCompare(2 * len(prev))
		err = Feasibility(prev, cur)
	}
	return r.verdict(obs.PhiF, ErrFeasibility, stage, err)
}

// verdict reports a stage-end Φ evaluation and turns its failure into
// shape evidence of the given kind.
func (r *runner) verdict(phi obs.Phi, kind error, stage int, err error) error {
	r.phiCheck(phi, stage, -1, err == nil)
	if err != nil {
		return r.fail(kind, stage, -1, "%v", err)
	}
	return nil
}

// mergeView folds a view received from sender at stage s, iteration j
// into the current one under Φ_C: the sender's mask must match the
// vect_mask prediction and every block already held must equal its
// relayed copy. The prediction is the knowledge before the exchange
// when the sender is the passive party (postExchange false), after it
// when the sender is the active party echoing its merged view
// (postExchange true). Under the TrustSenderMasks ablation the sender's
// own mask is the expected one, so only conflicts are checked.
func (r *runner) mergeView(rv wire.FrameView, s, j, sender int, postExchange bool) error {
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
	expected := rv.Mask
	if !r.opts.TrustSenderMasks {
		var err error
		if expected, err = r.expectedMask(s, j, sender, postExchange); err != nil {
			return err
		}
	}
	outcome, merr := view.mergeChecked(rv, expected)
	// Charge what the merge actually did: a hit folds one stored digest
	// per relayed slot plus the aggregate comparison; a miss pays the
	// key-for-key walk on top; a merge that failed validation before
	// the digest pass charges the key-for-key walk.
	switch outcome {
	case DigestHit:
		r.ep.ChargeCompare(rv.Mask.Count() + wire.DigestCompareCost)
		r.opts.Obs.DigestCheck(true)
	case DigestMiss:
		r.ep.ChargeCompare(rv.Mask.Count() + wire.DigestCompareCost + rv.Mask.Count()*int(rv.BlockLen))
		r.opts.Obs.DigestCheck(false)
	default:
		r.ep.ChargeCompare(rv.Mask.Count() * int(rv.BlockLen))
	}
	r.phiCheck(obs.PhiC, s, j, merr == nil)
	if merr != nil {
		return r.failFrom(ErrConsistency, s, j, sender, "view from %d: %v", sender, merr)
	}
	return nil
}

// expectedMask is the vect_mask prediction of the knowledge sender may
// claim in a view over the current subcube at stage s, iteration j.
func (r *runner) expectedMask(s, j, sender int, postExchange bool) (bitset.Set, error) {
	var m bitset.Set
	var err error
	if postExchange {
		m, err = VectMaskInto(&r.expect, s, j, sender, r.view.sc)
	} else {
		m, err = VectMaskBeforeInto(&r.expect, s, j, sender, r.view.sc)
	}
	if err != nil {
		return bitset.Set{}, fmt.Errorf("core: %w", err)
	}
	return m, nil
}

// --- framing -------------------------------------------------------------------

// sendBody is the payload of the runner's next send, encoded straight
// into the transport's frame (wire.Body): the keys of an exchange leg,
// the current view from its arena, or both, as the kind says. The keys
// come in up to two parts sent under one count, so the active side's
// reply encodes its kept and given halves from the merge buffer. It
// holds no copy of either, so a send encodes each key exactly once.
type sendBody struct {
	kind wire.Kind
	keys [2][]int64
	view *blockView
}

// Len implements wire.Body.
func (b *sendBody) Len() int {
	n := 0
	if b.kind != wire.KindVerify {
		n += 4 + 8*(len(b.keys[0])+len(b.keys[1]))
	}
	if b.kind != wire.KindExchange {
		n += b.view.wireLen()
	}
	return n
}

// AppendTo implements wire.Body: the bytes of wire.AppendExchange,
// wire.AppendFTExchange or wire.AppendVerify for the concatenated keys
// and the view.
func (b *sendBody) AppendTo(buf []byte) []byte {
	if b.kind != wire.KindVerify {
		buf = wire.AppendKeys(buf, b.keys[:]...)
	}
	if b.kind != wire.KindExchange {
		buf = b.view.appendWire(buf)
	}
	return buf
}

// sendParts transmits one exchange leg on link bit: keys, then more
// under the same count, plus the current view, piggybacked in one
// message normally, or as two messages under the
// SeparateCheckMessages ablation.
func (r *runner) sendParts(bit, stage int, keys, more []int64) error {
	if r.opts.SeparateCheckMessages {
		if err := r.transmit(bit, wire.KindExchange, stage, keys, more); err != nil {
			return err
		}
		return r.sendVerify(bit, stage)
	}
	return r.transmit(bit, wire.KindFTExchange, stage, keys, more)
}

// sendVerify transmits the current view alone.
func (r *runner) sendVerify(bit, stage int) error {
	return r.transmit(bit, wire.KindVerify, stage, nil, nil)
}

// transmit sends a message of the given kind carrying keys followed by
// more and, unless it is a keys-only exchange, the current view
// (iteration = link bit). The runner's sendBody encodes them into the
// transport's frame during the send; only the Byzantine tamper hook
// gets payload bytes.
func (r *runner) transmit(bit int, kind wire.Kind, stage int, keys, more []int64) error {
	r.body = sendBody{kind: kind, keys: [2][]int64{keys, more}, view: r.view}
	m := wire.Message{Kind: kind, Stage: int32(stage), Iter: int32(bit), Body: &r.body}
	if r.opts.Tamper != nil {
		return r.transmitTampered(bit, m)
	}
	if err := r.ep.Send(bit, m); err != nil {
		return fmt.Errorf("core: send: %w", err)
	}
	return nil
}

// transmitTampered is the tamper path, in its own method: Tamper takes
// the message's address, which would otherwise force every honest
// send's message to the heap. The hook sees the payload as bytes, in
// the runner's encode buffer, and no Body. From/To are stamped before
// the call so strategies can vary by receiver (the split-lie attack
// Φ_C exists to catch).
func (r *runner) transmitTampered(bit int, m wire.Message) error {
	partner, err := r.ep.Topology().Partner(r.ep.ID(), bit)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	r.enc = r.body.AppendTo(r.enc[:0])
	m.Payload, m.Body = r.enc, nil
	m.From = int32(r.ep.ID())
	m.To = int32(partner)
	out := r.opts.Tamper(&m)
	if out == nil {
		return nil // Byzantine silence
	}
	if err := r.ep.Send(bit, *out); err != nil {
		return fmt.Errorf("core: send: %w", err)
	}
	return nil
}

// --- checked receive -----------------------------------------------------------

// recvChecked receives from the given link and validates the header
// against the expected kind, stage, iteration, and sender. For
// SkipChecks nodes every validation failure degrades to ok == false
// rather than an error: a Byzantine node never fail-stops itself.
func (r *runner) recvChecked(bit int, kind wire.Kind, stage, iter, partner int) (wire.Message, bool, error) {
	m, err := r.ep.Recv(bit)
	if err != nil {
		if r.opts.SkipChecks {
			return wire.Message{}, false, nil
		}
		if errors.Is(err, transport.ErrAbsent) {
			return wire.Message{}, false, r.failAbsent(ErrProtocol, stage, iter, partner, "receive from %d: %v", partner, err)
		}
		return wire.Message{}, false, r.failFrom(ErrProtocol, stage, iter, partner, "receive from %d: %v", partner, err)
	}
	if m.Kind != kind || int(m.Stage) != stage || int(m.Iter) != iter ||
		int(m.From) != partner || int(m.To) != r.ep.ID() {
		if r.opts.SkipChecks {
			return wire.Message{}, false, nil
		}
		return wire.Message{}, false, r.failFrom(ErrProtocol, stage, iter, partner,
			"unexpected header kind=%v stage=%d iter=%d from=%d to=%d (want kind=%v stage=%d iter=%d from=%d)",
			m.Kind, m.Stage, m.Iter, m.From, m.To, kind, stage, iter, partner)
	}
	return m, true, nil
}

// recvPayload receives the next message from partner on link bit with
// its header checked and decodes its payload. A payload that does not
// decode is evidence against the sender ("undecodable <what>"). ok is
// false only for a SkipChecks node tolerating a missing or garbled
// message. The result aliases the decode scratch until the next decode
// into the same buffers.
func recvPayload[P any](r *runner, bit int, kind wire.Kind, stage, partner int, what string,
	decode func(*wire.DecodeScratch, []byte) (P, error)) (P, bool, error) {
	var zero P
	m, ok, err := r.recvChecked(bit, kind, stage, bit, partner)
	if err != nil || !ok {
		return zero, false, err
	}
	v, err := decode(&r.dec, m.Payload)
	if err != nil {
		if r.opts.SkipChecks {
			return zero, false, nil
		}
		return zero, false, r.failFrom(ErrProtocol, stage, bit, partner, "undecodable %s from %d: %v", what, partner, err)
	}
	return v, true, nil
}

// recvParts receives one exchange leg (keys plus view) from partner on
// link bit in whichever framing the run uses. ok is false only for
// SkipChecks nodes tolerating garbage. The returned keys alias the
// decode scratch and the view's values the received frame; both are
// consumed before the next receive.
func (r *runner) recvParts(bit, stage, partner int) (keys []int64, v wire.FrameView, ok bool, err error) {
	if !r.opts.SeparateCheckMessages {
		p, ok, err := recvPayload(r, bit, wire.KindFTExchange, stage, partner, "exchange", wire.DecodeFTExchangeFrame)
		return p.Keys, p.View, ok, err
	}
	// The keys land in the scratch's key buffer, which the view's
	// decode leaves alone, so they outlive the second receive.
	kp, ok, err := recvPayload(r, bit, wire.KindExchange, stage, partner, "keys", wire.DecodeExchangeInto)
	if err != nil || !ok {
		return nil, wire.FrameView{}, false, err
	}
	v, ok, err = recvPayload(r, bit, wire.KindVerify, stage, partner, "view", wire.DecodeVerifyFrame)
	return kp.Keys, v, ok, err
}

// --- final verification round --------------------------------------------------

// verifyRound runs the exchanges of the final pure-exchange
// verification round over the whole n-cube, highest dimension first:
// each pair swaps views and both sides merge under Φ_C, so every node
// ends up holding (and having cross-checked) the whole output. Message
// headers carry stage label n, which no regular stage uses.
func (r *runner) verifyRound(n int) error {
	for j := n - 1; j >= 0; j-- {
		if err := r.verifyExchange(n-1, j); err != nil {
			return err
		}
		r.opts.Obs.RoundEnd()
	}
	return nil
}

// verifyExchange performs iteration j of the verification round; s is
// the last regular stage, whose vect_mask schedule the views follow.
// The passive party sends first; the active party merges, then echoes
// its merged view.
func (r *runner) verifyExchange(s, j int) error {
	id := r.ep.ID()
	partner, err := r.ep.Topology().Partner(id, j)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if hypercube.Active(id, j) {
		if err := r.mergeVerify(s, j, partner, false); err != nil {
			return err
		}
		return r.sendVerify(j, s+1)
	}
	if err := r.sendVerify(j, s+1); err != nil {
		return err
	}
	return r.mergeVerify(s, j, partner, true)
}

// mergeVerify receives the partner's verification-round view and
// merges it under Φ_C.
func (r *runner) mergeVerify(s, j, partner int, postExchange bool) error {
	v, ok, err := recvPayload(r, j, wire.KindVerify, s+1, partner, "verify", wire.DecodeVerifyFrame)
	if err != nil || !ok {
		return err
	}
	return r.mergeView(v, s, j, partner, postExchange)
}
