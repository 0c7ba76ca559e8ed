package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
)

// Reproducer is a self-contained, JSON-serializable counterexample: the
// cube geometry, the fault placement, and the shrunk schedule. Anyone
// holding the artifact replays the exact failing execution —
// bit-identical virtual-tick series, identical forensic dump — via
// Replay.
type Reproducer struct {
	// Dim is the cube dimension; the workload is Workload(Dim).
	Dim int `json:"dim"`
	// Case is the fault placement (fault.Case serializes directly: the
	// pointer specs carry only exported scalar fields).
	Case fault.Case `json:"case"`
	// WeakenChecks replays with every node's assertions disabled (the
	// test-only hook the counterexample was found under, if any).
	WeakenChecks bool `json:"weaken_checks,omitempty"`
	// Invariant is the assertion the schedule breaks.
	Invariant string `json:"invariant"`
	// Schedule is the shrunk directive list for simnet.NewReplay.
	Schedule []simnet.Action `json:"schedule"`
}

// Reproducer packages the violation for a dim-cube sweep.
func (v *Violation) Reproducer(dim int, weakened bool) Reproducer {
	return Reproducer{
		Dim:          dim,
		Case:         v.Placement,
		WeakenChecks: weakened,
		Invariant:    v.Invariant,
		Schedule:     v.Schedule,
	}
}

// JSON renders the reproducer as indented JSON.
func (r Reproducer) JSON() ([]byte, error) { return json.MarshalIndent(r, "", "  ") }

// ParseReproducer decodes a reproducer artifact.
func ParseReproducer(data []byte) (Reproducer, error) {
	var r Reproducer
	if err := json.Unmarshal(data, &r); err != nil {
		return Reproducer{}, fmt.Errorf("explore: reproducer: %w", err)
	}
	return r, nil
}

// Record executes one controlled branch of a case (under any
// controlled scheduler — enumerating, random, replay) and returns the
// recorded schedule alongside the branch's diagnosis and forensic
// dump. The schedule feeds a Reproducer: replaying it through Replay
// must reproduce the same diagnosis.
func Record(cfg Config, c fault.Case, sched simnet.Scheduler) ([]simnet.Action, Diagnosis, *forensic.Report, error) {
	x, err := newExplorer(cfg)
	if err != nil {
		return nil, Diagnosis{}, nil, err
	}
	br, err := x.runOnce(c, sched)
	if err != nil {
		return nil, Diagnosis{}, nil, err
	}
	return simnet.PickedActions(br.steps), br.diag, br.dump, nil
}

// Replay re-executes a reproducer once under schedule replay and
// returns the branch's diagnosis and forensic dump (nil when the run
// raised no accusation). A replay that does not break exactly the
// invariant the reproducer records ("" for a passing run) is an error:
// a reproducer that does not reproduce is a determinism bug, the one
// thing a counterexample artifact must never be.
func Replay(r Reproducer) (Diagnosis, *forensic.Report, error) {
	x, err := newExplorer(Config{Dim: r.Dim, WeakenChecks: r.WeakenChecks})
	if err != nil {
		return Diagnosis{}, nil, err
	}
	c := r.Case
	br, err := x.runOnce(c, simnet.NewReplay(append([]simnet.Action(nil), r.Schedule...)))
	if err != nil {
		return Diagnosis{}, nil, err
	}
	if inv, _ := x.checkInvariant(c, br); inv != r.Invariant {
		return br.diag, br.dump, fmt.Errorf("explore: replay broke %q, reproducer records %q", inv, r.Invariant)
	}
	return br.diag, br.dump, nil
}

// WriteCounterexample saves a reproducer (and, when present, the
// forensic dump of its run) to dir under the given base name:
// <base>.json is the artifact cmd/explore -replay runs, and
// <base>-forensic.json renders with cmd/forensic.
func WriteCounterexample(dir, base string, r Reproducer, dump *forensic.Report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("explore: artifact dir: %w", err)
	}
	buf, err := r.JSON()
	if err != nil {
		return fmt.Errorf("explore: reproducer render: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), buf, 0o644); err != nil {
		return fmt.Errorf("explore: reproducer write: %w", err)
	}
	if dump == nil {
		return nil
	}
	fbuf, err := dump.JSON()
	if err != nil {
		return fmt.Errorf("explore: forensic render: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, base+"-forensic.json"), fbuf, 0o644); err != nil {
		return fmt.Errorf("explore: forensic write: %w", err)
	}
	return nil
}
