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

// Kernel is the part of a fault-tolerant runner the Protocol shell
// calls back into. S_FT (one key per node) and the block sort (m keys
// per node) each implement it over their own gathered view.
type Kernel interface {
	// WireView stages the current view in wire form, its Vals in
	// scratch (grown as needed and returned inside the view). The
	// result aliases the view and the scratch; the shell encodes it at
	// once.
	WireView(scratch []int64) wire.View
	// MergeView folds a view received from sender at stage s,
	// iteration j into the current one under Φ_C. postExchange is set
	// when the sender is the active party echoing its merged view. A
	// failed merge is reported through CheckMerge.
	MergeView(rv wire.View, s, j, sender int, postExchange bool) error
	// ViewDigest returns the multiset digest of the current view's held
	// slots: the fingerprint the flight recorder files with each Φ
	// evaluation.
	ViewDigest() wire.Digest
}

// Protocol is the shell S_FT and the block sort share: everything the
// paradigm does the same way whatever a node holds. It turns evidence
// into ERROR signals, frames, tampers and sends messages, receives them
// with their headers checked, runs the final verification round's
// exchanges, and evaluates Φ_P, Φ_F and the gather-completeness part of
// Φ_C once the kernel has computed them. Kernels embed it and keep
// only what differs in work or evidence: the view type, the exchange
// step with its reply checks, the Φ_C merge with its charges, the Φ_P
// call and the stage loop.
//
// What the shell charges the endpoint is part of the pinned
// virtual-time series, and its steady-state exchange path allocates
// nothing.
type Protocol struct {
	ep     transport.Endpoint
	kernel Kernel
	opts   Options

	// Per-node arenas reused across every stage and iteration: payload
	// encoding scratch, zero-copy decode scratch, the wire-view Vals
	// staging area, and the vect_mask prediction scratch.
	enc    []byte
	dec    wire.DecodeScratch
	wvVals []int64
	expect bitset.Set
}

// NewProtocol returns the shell for the node at ep, calling back into
// k. Of opts it reads only Tamper, SkipChecks, Obs and Forensic.
func NewProtocol(ep transport.Endpoint, k Kernel, opts Options) Protocol {
	return Protocol{ep: ep, kernel: k, opts: opts}
}

// Reserve sizes the wire-view staging for vals keys and the encode
// buffer for enc bytes, so no send grows them.
func (p *Protocol) Reserve(vals, enc int) {
	p.wvVals = make([]int64, 0, vals)
	p.enc = make([]byte, 0, enc)
}

// BeginStage opens the span of stage s (of the final round when s is
// the cube dimension) and returns the virtual time it began at.
func (p *Protocol) BeginStage(s int) int64 {
	vt := int64(p.ep.Clock())
	p.opts.Obs.StageBegin(p.ep.ID(), s, s == p.ep.Topology().Dim(), vt)
	return vt
}

// EndStage closes the span BeginStage opened at begunVT and publishes
// the node's verified sequence seq over sc, blockLen keys per slot, on
// the stage-view stream.
func (p *Protocol) EndStage(s int, begunVT int64, sc hypercube.Subcube, blockLen int, seq []int64) {
	id, final := p.ep.ID(), s == p.ep.Topology().Dim()
	p.opts.Obs.StageEnd(id, s, final, begunVT, int64(p.ep.Clock()))
	p.opts.Obs.PublishStage(obs.StageView{
		Node: id, Stage: s, Final: final,
		SubcubeStart: sc.Start, SubcubeSize: sc.Size(),
		BlockLen: blockLen, Assembled: seq,
		Causal: p.opts.Forensic.LastID(),
	})
}

// --- evidence ----------------------------------------------------------------

// fail signals shape evidence (no accused node); FailFrom signals
// evidence that implicates a sender, failAbsent a missing message.
func (p *Protocol) fail(kind error, stage, iter int, format string, args ...any) error {
	return p.failEvidence(kind, KindShape, stage, iter, -1, format, args...)
}

// FailFrom signals value evidence against accused and returns the
// predicate error the node fail-stops with.
func (p *Protocol) FailFrom(kind error, stage, iter, accused int, format string, args ...any) error {
	return p.failEvidence(kind, KindValue, stage, iter, accused, format, args...)
}

func (p *Protocol) failAbsent(kind error, stage, iter, accused int, format string, args ...any) error {
	return p.failEvidence(kind, KindAbsence, stage, iter, accused, format, args...)
}

// failEvidence constructs the node's predicate error, signals ERROR
// (with the evidence kind and accused node) to the host — the reliable
// diagnostic channel of the paradigm — and returns the error so the
// node fail-stops.
func (p *Protocol) failEvidence(kind error, ev ErrorKind, stage, iter, accused int, format string, args ...any) error {
	if accused >= 0 {
		p.opts.Obs.Accusation(p.ep.ID(), stage, iter, accused, int64(p.ep.Clock()))
	}
	pe := &PredicateError{
		Node:     p.ep.ID(),
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
	p.opts.Forensic.Accuse(forensic.PredCode(PredicateName(kind)), uint8(ev),
		int32(stage), int32(iter), int32(accused), pe.Detail, int64(p.ep.Clock()))
	// Host signalling is best-effort: the host link is reliable by
	// assumption, but a full mailbox must not mask the local error.
	_ = p.ep.SendHost(wire.Message{
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

// phiCheck reports one constraint-predicate evaluation to the observer
// and the flight recorder. A no-op without either.
func (p *Protocol) phiCheck(phi obs.Phi, stage, iter int, pass bool) {
	p.opts.Obs.PhiCheck(phi, p.ep.ID(), stage, iter, pass, int64(p.ep.Clock()))
	if p.opts.Forensic != nil {
		p.opts.Forensic.Phi(phiPred(phi), int32(stage), int32(iter), pass,
			p.kernel.ViewDigest(), int64(p.ep.Clock()))
	}
}

// phiPred maps an obs predicate label to its forensic record code.
func phiPred(phi obs.Phi) uint8 {
	switch phi {
	case obs.PhiP:
		return forensic.PredProgress
	case obs.PhiF:
		return forensic.PredFeasibility
	case obs.PhiC:
		return forensic.PredConsistency
	default:
		return forensic.PredNone
	}
}

// --- predicates ----------------------------------------------------------------

// CheckGather is the completeness part of Φ_C at the end of a stage or
// of the final round (stage label = cube dimension): every slot of the
// view must have been collected. have is the view's knowledge mask.
func (p *Protocol) CheckGather(have bitset.Set, stage int) error {
	if p.opts.SkipChecks || have.Full() {
		return nil
	}
	p.phiCheck(obs.PhiC, stage, -1, false)
	what := "stage"
	if stage == p.ep.Topology().Dim() {
		what = "final"
	}
	return p.fail(ErrConsistency, stage, -1, "%s gather incomplete: mask %s", what, have.String())
}

// CheckProgress charges cost compares for Φ_P, reports the evaluation,
// and turns a violation err (the kernel's Φ_P result) into shape
// evidence.
func (p *Protocol) CheckProgress(stage, cost int, err error) error {
	p.ep.ChargeCompare(cost)
	return p.verdict(obs.PhiP, ErrProgress, stage, err)
}

// CheckFeasibility is Φ_F: cur, this stage's copy of the previous
// stage's output, must be a permutation of prev, the verified sequence
// saved then. got and want are their multiset digests. Equal multisets
// always digest equally, so a match accepts in O(1), and a mismatch
// proves a real difference; the element scan then runs only to produce
// the attribution evidence, and whatever it reports is the verdict.
func (p *Protocol) CheckFeasibility(stage int, got, want wire.Digest, prev, cur []int64) error {
	p.ep.ChargeCompare(wire.DigestCompareCost)
	var err error
	if got == want {
		p.opts.Obs.DigestCheck(true)
	} else {
		p.opts.Obs.DigestCheck(false)
		p.opts.Obs.DigestSlowScan()
		p.ep.ChargeCompare(2 * len(prev))
		err = Feasibility(prev, cur)
	}
	return p.verdict(obs.PhiF, ErrFeasibility, stage, err)
}

// verdict reports a stage-end Φ evaluation and turns its failure into
// shape evidence of the given kind.
func (p *Protocol) verdict(phi obs.Phi, kind error, stage int, err error) error {
	p.phiCheck(phi, stage, -1, err == nil)
	if err != nil {
		return p.fail(kind, stage, -1, "%v", err)
	}
	return nil
}

// CheckMerge reports a Φ_C view merge and turns its failure into value
// evidence against the sender.
func (p *Protocol) CheckMerge(s, j, sender int, err error) error {
	p.phiCheck(obs.PhiC, s, j, err == nil)
	if err != nil {
		return p.FailFrom(ErrConsistency, s, j, sender, "view from %d: %v", sender, err)
	}
	return nil
}

// ExpectedMask is the vect_mask prediction of the knowledge sender may
// claim in a view over sc at stage s, iteration j: before the exchange
// when the sender is the passive party, after it (the echoed merged
// view) when postExchange is set.
func (p *Protocol) ExpectedMask(s, j, sender int, sc hypercube.Subcube, postExchange bool) (bitset.Set, error) {
	var m bitset.Set
	var err error
	if postExchange {
		m, err = VectMaskInto(&p.expect, s, j, sender, sc)
	} else {
		m, err = VectMaskBeforeInto(&p.expect, s, j, sender, sc)
	}
	if err != nil {
		return bitset.Set{}, fmt.Errorf("core: %w", err)
	}
	return m, nil
}

// --- framing -------------------------------------------------------------------
//
// The sends are typed (rather than one method taking `any`) because
// interface boxing of a payload struct would allocate on every send.

// SendFT transmits one compare-exchange leg on link bit: keys plus the
// kernel's staged view, piggybacked in one message.
func (p *Protocol) SendFT(bit, stage int, keys []int64) error {
	buf, err := wire.AppendFTExchange(p.enc[:0], wire.FTExchangePayload{Keys: keys, View: p.stageView()})
	if err != nil {
		return fmt.Errorf("core: encode: %w", err)
	}
	return p.transmit(bit, wire.KindFTExchange, stage, buf)
}

// sendVerify transmits the kernel's staged view alone.
func (p *Protocol) sendVerify(bit, stage int) error {
	buf, err := wire.AppendVerify(p.enc[:0], wire.VerifyPayload{View: p.stageView()})
	if err != nil {
		return fmt.Errorf("core: encode: %w", err)
	}
	return p.transmit(bit, wire.KindVerify, stage, buf)
}

// sendKeys transmits keys alone (S_FT's SeparateCheckMessages ablation).
func (p *Protocol) sendKeys(bit, stage int, keys []int64) error {
	return p.transmit(bit, wire.KindExchange, stage, wire.AppendExchange(p.enc[:0], keys))
}

func (p *Protocol) stageView() wire.View {
	v := p.kernel.WireView(p.wvVals)
	p.wvVals = v.Vals
	return v
}

// transmit frames an encoded payload (iteration = link bit), applies
// the Byzantine tamper hook if any, and sends. The transport copies the
// payload into its own buffer before returning, so the encode scratch
// is immediately reusable.
func (p *Protocol) transmit(bit int, kind wire.Kind, stage int, payload []byte) error {
	p.enc = payload
	m := wire.Message{Kind: kind, Stage: int32(stage), Iter: int32(bit), Payload: payload}
	if p.opts.Tamper != nil {
		return p.transmitTampered(bit, m)
	}
	if err := p.ep.Send(bit, m); err != nil {
		return fmt.Errorf("core: send: %w", err)
	}
	return nil
}

// transmitTampered is the tamper path, in its own method: Tamper takes
// the message's address, which would otherwise force every honest
// send's message to the heap. From/To are stamped before the call so
// strategies can vary by receiver (the split-lie attack Φ_C exists to
// catch).
func (p *Protocol) transmitTampered(bit int, m wire.Message) error {
	partner, err := p.ep.Topology().Partner(p.ep.ID(), bit)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	m.From = int32(p.ep.ID())
	m.To = int32(partner)
	out := p.opts.Tamper(&m)
	if out == nil {
		return nil // Byzantine silence
	}
	if err := p.ep.Send(bit, *out); err != nil {
		return fmt.Errorf("core: send: %w", err)
	}
	return nil
}

// --- checked receive -----------------------------------------------------------

// recvChecked receives from the given link and validates the header
// against the expected kind, stage, iteration, and sender. For
// SkipChecks nodes every validation failure degrades to ok == false
// rather than an error: a Byzantine node never fail-stops itself.
func (p *Protocol) recvChecked(bit int, kind wire.Kind, stage, iter, partner int) (wire.Message, bool, error) {
	m, err := p.ep.Recv(bit)
	if err != nil {
		if p.opts.SkipChecks {
			return wire.Message{}, false, nil
		}
		if errors.Is(err, transport.ErrAbsent) {
			return wire.Message{}, false, p.failAbsent(ErrProtocol, stage, iter, partner, "receive from %d: %v", partner, err)
		}
		return wire.Message{}, false, p.FailFrom(ErrProtocol, stage, iter, partner, "receive from %d: %v", partner, err)
	}
	if m.Kind != kind || int(m.Stage) != stage || int(m.Iter) != iter ||
		int(m.From) != partner || int(m.To) != p.ep.ID() {
		if p.opts.SkipChecks {
			return wire.Message{}, false, nil
		}
		return wire.Message{}, false, p.FailFrom(ErrProtocol, stage, iter, partner,
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
func recvPayload[P any](p *Protocol, bit int, kind wire.Kind, stage, partner int, what string,
	decode func(*wire.DecodeScratch, []byte) (P, error)) (P, bool, error) {
	var zero P
	m, ok, err := p.recvChecked(bit, kind, stage, bit, partner)
	if err != nil || !ok {
		return zero, false, err
	}
	v, err := decode(&p.dec, m.Payload)
	if err != nil {
		if p.opts.SkipChecks {
			return zero, false, nil
		}
		return zero, false, p.FailFrom(ErrProtocol, stage, bit, partner, "undecodable %s from %d: %v", what, partner, err)
	}
	return v, true, nil
}

// RecvFT receives and decodes one compare-exchange leg (keys plus
// view) from partner on link bit.
func (p *Protocol) RecvFT(bit, stage, partner int) (wire.FTExchangePayload, bool, error) {
	return recvPayload(p, bit, wire.KindFTExchange, stage, partner, "exchange", wire.DecodeFTExchangeInto)
}

// --- final verification round --------------------------------------------------

// VerifyRound runs the exchanges of the final pure-exchange
// verification round over the whole n-cube, highest dimension first:
// each pair swaps views and both sides merge under Φ_C, so every node
// ends up holding (and having cross-checked) the whole output. Message
// headers carry stage label n, which no regular stage uses.
func (p *Protocol) VerifyRound(n int) error {
	id := p.ep.ID()
	for j := n - 1; j >= 0; j-- {
		p.opts.Obs.RoundBegin(id, n, j, int64(p.ep.Clock()))
		if err := p.verifyExchange(n-1, j); err != nil {
			return err
		}
		p.opts.Obs.RoundEnd(id, n, j, int64(p.ep.Clock()))
	}
	return nil
}

// verifyExchange performs iteration j of the verification round; s is
// the last regular stage, whose vect_mask schedule the views follow.
// The passive party sends first; the active party merges, then echoes
// its merged view.
func (p *Protocol) verifyExchange(s, j int) error {
	id := p.ep.ID()
	partner, err := p.ep.Topology().Partner(id, j)
	if err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if hypercube.Active(id, j) {
		if err := p.mergeVerify(s, j, partner, false); err != nil {
			return err
		}
		return p.sendVerify(j, s+1)
	}
	if err := p.sendVerify(j, s+1); err != nil {
		return err
	}
	return p.mergeVerify(s, j, partner, true)
}

// mergeVerify receives the partner's verification-round view and
// merges it under Φ_C.
func (p *Protocol) mergeVerify(s, j, partner int, postExchange bool) error {
	v, ok, err := recvPayload(p, j, wire.KindVerify, s+1, partner, "verify", wire.DecodeVerifyInto)
	if err != nil || !ok {
		return err
	}
	return p.kernel.MergeView(v.View, s, j, partner, postExchange)
}
