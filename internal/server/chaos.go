// ChaosSpec: the server-side fault-injection surface. A job may carry
// one injected fault (message, comparison, or memory class) so load
// generators and chaos tests can drive the full detect → diagnose →
// recover path through the public API — against pooled networks, mixed
// in with honest tenants. Production deployments leave AllowChaos off
// and the field is rejected at admission.
package server

import (
	"fmt"

	"repro/internal/core"
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
	// Node is the physical label of the faulty node on the initial
	// cube. The injector follows it through quarantine remappings; if
	// the node has been quarantined off the cube the fault simply no
	// longer manifests — exactly a repaired machine.
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

// strategyByName inverts fault.Strategy's kebab-case names.
func strategyByName(name string) (fault.Strategy, bool) {
	for _, s := range fault.AllStrategies() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

func cmpModeByName(name string) (fault.CmpMode, bool) {
	for _, m := range fault.AllCmpModes() {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

func memModeByName(name string) (fault.MemMode, bool) {
	for _, m := range fault.AllMemModes() {
		if m.String() == name {
			return m, true
		}
	}
	return 0, false
}

// validate rejects malformed specs at admission, before any network is
// leased.
func (c *ChaosSpec) validate() error {
	if c.Node < 0 {
		return fmt.Errorf("chaos: node %d negative", c.Node)
	}
	switch c.Class {
	case "message":
		if _, ok := strategyByName(c.Strategy); !ok {
			return fmt.Errorf("chaos: unknown message strategy %q", c.Strategy)
		}
	case "comparison":
		if _, ok := cmpModeByName(c.Mode); !ok {
			return fmt.Errorf("chaos: unknown comparison mode %q", c.Mode)
		}
	case "memory":
		if _, ok := memModeByName(c.Mode); !ok {
			return fmt.Errorf("chaos: unknown memory mode %q", c.Mode)
		}
	default:
		return fmt.Errorf("chaos: unknown class %q", c.Class)
	}
	if c.Rate < 0 || c.Rate > 1 {
		return fmt.Errorf("chaos: rate %v outside [0,1]", c.Rate)
	}
	return nil
}

// injector compiles the spec into reliablesort's per-attempt Inject
// hook. physical[l] is the original-cube label at logical slot l, so
// the fault follows the machine, not the slot.
func (c *ChaosSpec) injector() func(attempt, dim int, physical []int) []core.Options {
	spec := *c
	rate := spec.Rate
	if rate == 0 {
		rate = 1
	}
	return func(attempt, dim int, physical []int) []core.Options {
		if spec.Transient && attempt > 0 {
			return nil
		}
		slot := -1
		for l, p := range physical {
			if p == spec.Node {
				slot = l
				break
			}
		}
		if slot < 0 {
			return nil // quarantined or substituted away: machine repaired
		}
		opts := make([]core.Options, len(physical))
		// SkipChecks disarms the faulty node's own detectors — a truly
		// Byzantine machine does not police itself; its honest peers
		// must catch it.
		switch spec.Class {
		case "message":
			st, _ := strategyByName(spec.Strategy)
			lie := spec.Lie
			if lie == 0 {
				lie = 424242
			}
			opts[slot] = core.Options{SkipChecks: true, Tamper: fault.Spec{
				Node: slot, Strategy: st, ActivateStage: 1, LieValue: lie,
			}.Tamper()}
		case "comparison":
			mode, _ := cmpModeByName(spec.Mode)
			opts[slot] = core.Options{SkipChecks: true, Compare: fault.CmpSpec{
				Node: slot, Mode: mode, Rate: rate, Seed: spec.Seed, ActivateStage: 1,
			}.Comparator()}
		case "memory":
			mode, _ := memModeByName(spec.Mode)
			// Corruptor carries per-run rng state: build a fresh one per
			// attempt (this closure runs once per attempt).
			opts[slot] = core.Options{SkipChecks: true, CorruptMemory: fault.MemSpec{
				Node: slot, Mode: mode, Rate: rate, Seed: spec.Seed,
				ActivateStage: 1, StuckValue: spec.Lie,
			}.Corruptor()}
		}
		return opts
	}
}
