// Package obs is the repository's unified observability layer: a
// process-wide but injectable core of metrics and a bounded event
// journal, with Prometheus and JSON exporters and an HTTP
// introspection endpoint.
//
// The paper's whole argument is that visibility into the running
// algorithm — the constraint predicate Φ = (Φ_P, Φ_F, Φ_C) — *is* the
// fault tolerance. This package turns the same visibility outward:
// every Φ evaluation, compare-exchange round, stage boundary, and
// recovery attempt is counted, and the stages' virtual-time costs are
// histogrammed, without perturbing the quantities the paper measures.
// Each node protocol event itself — a Φ evaluation with its verdict
// and view digest, an accusation — is recorded once, in the node's
// flight-recorder ring (package forensic), and each supervision once,
// in its recovery.Report, which adds itself to the recovery counters
// when the supervision ends. The journal keeps what neither records:
// the service's job spans.
//
// Design constraints, in order:
//
//  1. Recording must be allocation-free. The PR-2 steady-state message
//     path performs zero allocations per exchange, and attaching an
//     Observer must keep it that way: counters and gauges are single
//     atomic adds, histograms are an atomic add into a fixed bucket,
//     and journal events are fixed-size structs copied into a
//     preallocated ring under a mutex.
//  2. Recording must not touch virtual time. Observability reads
//     endpoint clocks; it never charges them, so every virtual-tick
//     series (vticks, vcomm, vcomp, msgs, wirebytes) is bit-identical
//     with and without an Observer attached.
//  3. Everything is injectable. Registries, journals, and observers
//     are plain values; DefaultRegistry()/DefaultMetrics() provide the
//     process-wide instance the transports count into when nothing is
//     injected, but tests and libraries can build private ones.
//
// The pieces:
//
//   - Registry (registry.go): named counters, gauges, and fixed-bucket
//     histograms, exported as Prometheus text and JSON (export.go).
//   - Journal (journal.go): a bounded ring buffer of the service's job
//     spans.
//   - Observer (observer.go): the façade protocol code records
//     through — counters for stages, rounds, Φ checks and accusations,
//     and the stage-cost histogram. All methods are nil-receiver safe,
//     so un-instrumented runs pay a single predictable branch.
//   - Handler/Serve (http.go): /metrics, and Journal's own handler for
//     /debug/journal.
package obs

import (
	"fmt"

	"repro/internal/obs/forensic"
)

// Phi identifies one of the paper's three constraint predicates. Its
// values are the flight recorder's predicate codes, so the Φ counters
// and a node's flight record index by the same constant.
type Phi uint8

const (
	// PhiP is Φ_P, the progress (shape) predicate.
	PhiP = Phi(forensic.PredProgress)
	// PhiF is Φ_F, the feasibility (permutation) predicate.
	PhiF = Phi(forensic.PredFeasibility)
	// PhiC is Φ_C, the consistency (cross-copy agreement) predicate.
	PhiC = Phi(forensic.PredConsistency)
)

// phiNames is indexed by Phi.
var phiNames = [...]string{PhiP: "P", PhiF: "F", PhiC: "C"}

// String returns the predicate's short name ("P", "F", "C").
func (p Phi) String() string {
	if int(p) < len(phiNames) && phiNames[p] != "" {
		return phiNames[p]
	}
	return fmt.Sprintf("phi(%d)", uint8(p))
}

// EventKind discriminates journal events. The values are part of
// /debug/journal's output, which serializes kind as a number, so they
// stay fixed; 0 to 6 and 9 upward name no kind.
type EventKind uint8

const (
	// EvSpanBegin/EvSpanEnd bracket a labeled phase outside the bitonic
	// schedule (the service's job spans).
	EvSpanBegin EventKind = iota + 7
	EvSpanEnd
)

// eventKindNames is indexed by EventKind.
var eventKindNames = [...]string{
	EvSpanBegin: "span-begin",
	EvSpanEnd:   "span-end",
}

// String returns the kind's kebab-case name.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("event(%d)", uint8(k))
}

// Event is one fixed-size journal record. Producers fill the fields
// relevant to the Kind and leave the rest zero; Seq and Wall are
// stamped by the Journal at append time.
type Event struct {
	// Seq is the journal-assigned monotone sequence number.
	Seq uint64 `json:"seq"`
	// Kind discriminates the event.
	Kind EventKind `json:"kind"`
	// Label names the span ("job"). Always a constant string, so
	// assigning it allocates nothing.
	Label string `json:"label,omitempty"`
	// Node is what the span concerns: a job span's job ID (mod 2^31).
	Node int32 `json:"node"`
	// Stage and Iter are -1 on job spans.
	Stage int32 `json:"stage"`
	Iter  int32 `json:"iter"`
	// Pass is the verdict of a job's EvSpanEnd.
	Pass bool `json:"pass,omitempty"`
	// VTicks is the producer's virtual clock when the event fired.
	VTicks int64 `json:"vticks"`
	// Wall is the wall-clock time in Unix nanoseconds, stamped at
	// append.
	Wall int64 `json:"wall"`
	// Aux is a kind-specific scalar: a job's key count on its
	// EvSpanBegin, its run milliseconds on its EvSpanEnd.
	Aux int64 `json:"aux,omitempty"`
}
