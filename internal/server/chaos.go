// ChaosSpec: the server-side fault-injection surface. A job may carry
// one injected fault (message, comparison, or memory class) so load
// generators and chaos tests can drive the full detect → diagnose →
// recover path through the public API — against pooled networks, mixed
// in with honest tenants. Production deployments leave AllowChaos off
// and the field is rejected at admission.
package server

import (
	"fmt"

	"repro/internal/fault"
)

// ChaosSpec describes one fault to inject into a job's sort attempts.
// Exactly the vocabularies of internal/fault, keyed by kebab-case
// names so it round-trips through JSON.
type ChaosSpec struct {
	// Class selects the fault injector: "message" (Byzantine message
	// tampering), "comparison" (lying comparator), or "memory"
	// (corrupted resident keys).
	Class string `json:"class"`
	// Node is the physical label of the faulty node: a node of the
	// job's initial cube or one of its spares, which strikes once
	// substituted in; admission rejects any other label. The injector
	// follows it through quarantine remappings; if the node has been
	// quarantined off the cube the fault simply no longer manifests —
	// exactly a repaired machine.
	Node int `json:"node"`
	// Strategy names the message-class behaviour (fault.Strategy
	// kebab-case: "key-lie", "split-lie", ... ). Message class only.
	Strategy string `json:"strategy,omitempty"`
	// Mode names the comparison ("cmp-persistent"/"cmp-transient") or
	// memory ("mem-flip"/"mem-stuck"/"mem-wipe") discipline.
	Mode string `json:"mode,omitempty"`
	// Rate is the lie/corruption probability for comparison and memory
	// classes; 0 means 1 (always).
	Rate float64 `json:"rate,omitempty"`
	// Seed makes comparison/memory corruption deterministic.
	Seed int64 `json:"seed,omitempty"`
	// Lie parameterizes value-substitution message strategies and the
	// memory stuck value.
	Lie int64 `json:"lie,omitempty"`
	// Transient limits the fault to attempt 0, modelling a soft error
	// the first retry outruns. Persistent faults follow the node until
	// it is quarantined or substituted.
	Transient bool `json:"transient,omitempty"`
}

// compile checks the spec and compiles it into the fault it arms: the
// message lie defaults to 424242, the comparison and memory rate to 1,
// the memory stuck value is Lie, and every fault activates at stage 1.
// The node is not checked here; that needs the job's cube.
func (c *ChaosSpec) compile() (fault.Case, error) {
	if c.Rate < 0 || c.Rate > 1 {
		return fault.Case{}, fmt.Errorf("chaos: rate %v outside [0,1]", c.Rate)
	}
	rate := c.Rate
	if rate == 0 {
		rate = 1
	}
	switch c.Class {
	case "message":
		st, ok := fault.ByName(fault.AllStrategies(), c.Strategy)
		if !ok {
			return fault.Case{}, fmt.Errorf("chaos: unknown message strategy %q", c.Strategy)
		}
		lie := c.Lie
		if lie == 0 {
			lie = 424242
		}
		return fault.Case{Msg: &fault.Spec{Node: c.Node, Strategy: st, ActivateStage: 1, LieValue: lie}}, nil
	case "comparison":
		mode, ok := fault.ByName(fault.AllCmpModes(), c.Mode)
		if !ok {
			return fault.Case{}, fmt.Errorf("chaos: unknown comparison mode %q", c.Mode)
		}
		return fault.Case{Cmp: &fault.CmpSpec{Node: c.Node, Mode: mode, Rate: rate, Seed: c.Seed, ActivateStage: 1}}, nil
	case "memory":
		mode, ok := fault.ByName(fault.AllMemModes(), c.Mode)
		if !ok {
			return fault.Case{}, fmt.Errorf("chaos: unknown memory mode %q", c.Mode)
		}
		return fault.Case{Mem: &fault.MemSpec{Node: c.Node, Mode: mode, Rate: rate, Seed: c.Seed,
			ActivateStage: 1, StuckValue: c.Lie}}, nil
	}
	return fault.Case{}, fmt.Errorf("chaos: unknown class %q", c.Class)
}
