package fault

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Case describes one faulty node: at most one faulty component, drawn
// from the full four-way Class taxonomy (message, absence, comparison,
// memory). Options arms it, Follow keeps it on its physical machine
// across recovery attempts, Inject runs it and Classify judges the run.
// It is also one cell of the interleaving explorer's single-fault
// sweep, where the zero placement (no fault at all) is a Case too — the
// explorer asserts the fault-free protocol sorts under every schedule.
type Case struct {
	// Name uniquely identifies the case within a sweep, e.g.
	// "msg/key-lie/n1/s2" or "mem/mem-stuck/n3".
	Name string
	// Class is the adversary class, 0 for the fault-free case.
	Class Class

	// At most one of the following is non-zero.

	// Msg is a Byzantine message fault (or Silence, observed as
	// absence).
	Msg *Spec
	// Cmp is a lying-comparator fault.
	Cmp *CmpSpec
	// Mem is a resident-memory corruption fault.
	Mem *MemSpec
	// Crashed is the label of a node crashed outright (fail-stop from
	// time zero, modelled as a nil program), -1 when none.
	Crashed int
}

// Faulty returns the faulty node's label, -1 for the fault-free case.
func (c Case) Faulty() int {
	switch {
	case c.Msg != nil:
		return c.Msg.Node
	case c.Cmp != nil:
		return c.Cmp.Node
	case c.Mem != nil:
		return c.Mem.Node
	default:
		return c.Crashed
	}
}

// At returns the same fault re-targeted at node. It copies the spec
// instead of writing through it: a Case holds pointers, and concurrent
// jobs' injectors share one Case.
func (c Case) At(node int) Case {
	switch {
	case c.Msg != nil:
		s := *c.Msg
		s.Node = node
		c.Msg = &s
	case c.Cmp != nil:
		s := *c.Cmp
		s.Node = node
		c.Cmp = &s
	case c.Mem != nil:
		s := *c.Mem
		s.Node = node
		c.Mem = &s
	case c.Crashed >= 0:
		c.Crashed = node
	}
	return c
}

// Validate rejects a malformed fault or one whose node lies outside
// [0, nodes). A case without a message, comparison or memory fault
// has nothing to inject and is rejected too.
func (c Case) Validate(nodes int) error {
	switch {
	case c.Msg != nil:
		return c.Msg.Validate(nodes)
	case c.Cmp != nil:
		return c.Cmp.Validate(nodes)
	case c.Mem != nil:
		return c.Mem.Validate(nodes)
	}
	return errors.New("fault: case injects no message, comparison or memory fault")
}

// kind names the case's fault: its adversary class and the strategy or
// mode within the class.
func (c Case) kind() (Class, string) {
	switch {
	case c.Msg != nil:
		return c.Msg.Strategy.Class(), c.Msg.Strategy.String()
	case c.Cmp != nil:
		return ClassComparison, c.Cmp.Mode.String()
	case c.Mem != nil:
		return ClassMemory, c.Mem.Mode.String()
	}
	return c.Class, ""
}

// Options builds the per-node S_FT options implementing the case for an
// n-node cube. SkipChecks disarms the faulty node's own detectors: a
// Byzantine machine does not police itself, its honest peers must
// catch it. Each call builds a fresh comparator or corruptor, whose
// random stream then restarts. Crash cases are expressed by the runner
// (a nil program), not by options.
func (c Case) Options(n int) []core.Options {
	opts := make([]core.Options, n)
	switch {
	case c.Msg != nil:
		opts[c.Msg.Node] = core.Options{SkipChecks: true, Tamper: c.Msg.Tamper()}
	case c.Cmp != nil:
		opts[c.Cmp.Node] = core.Options{SkipChecks: true, Compare: c.Cmp.Comparator()}
	case c.Mem != nil:
		opts[c.Mem.Node] = core.Options{SkipChecks: true, CorruptMemory: c.Mem.Corruptor()}
	}
	return opts
}

// Follow returns the per-attempt injector (reliablesort.Options.Inject)
// that keeps c on the physical machine site across recovery.
// physical[l] is the machine at logical slot l of an attempt's cube, so
// each attempt arms c at the slot site holds: a spare substituted in
// carries it from its new slot, and a shrink relabels it. A transient
// fault strikes attempt 0 only. A persistent fault strikes every
// attempt while site is in the cube, and nothing once quarantine has
// removed it — a repaired machine. Every call arms afresh (Options), so
// a retried attempt replays the same lies; the injector is safe for
// concurrent use.
func Follow(c Case, site int, persistent bool) func(attempt, dim int, physical []int) []core.Options {
	return func(attempt, _ int, physical []int) []core.Options {
		if attempt > 0 && !persistent {
			return nil
		}
		for l, p := range physical {
			if p == site {
				return c.At(l).Options(len(physical))
			}
		}
		return nil
	}
}

// SingleFaultCases enumerates the explorer's sweep menu for a dim-cube:
// the fault-free case, every message strategy at every node for every
// activation stage in [1, dim], a crash of every node, and every
// comparison and memory mode at every node. Deterministic order, fixed
// seeds — the menu itself must be reproducible.
func SingleFaultCases(dim int) []Case {
	n := 1 << uint(dim)
	const (
		lieValue   = 1 << 20
		caseSeed   = 42
		stuckValue = -7
	)
	cases := []Case{{Name: "none", Crashed: -1}}
	for _, st := range AllStrategies() {
		for id := 0; id < n; id++ {
			for stage := 1; stage <= dim; stage++ {
				s := &Spec{Node: id, Strategy: st, ActivateStage: stage, LieValue: lieValue}
				cases = append(cases, Case{
					Name:    fmt.Sprintf("msg/%v/n%d/s%d", st, id, stage),
					Class:   st.Class(),
					Msg:     s,
					Crashed: -1,
				})
			}
		}
	}
	for id := 0; id < n; id++ {
		cases = append(cases, Case{
			Name:    fmt.Sprintf("crash/n%d", id),
			Class:   ClassAbsence,
			Crashed: id,
		})
	}
	for _, m := range AllCmpModes() {
		for id := 0; id < n; id++ {
			s := &CmpSpec{Node: id, Mode: m, Rate: 1, Seed: caseSeed, ActivateStage: 1}
			cases = append(cases, Case{
				Name:    fmt.Sprintf("cmp/%v/n%d", m, id),
				Class:   ClassComparison,
				Cmp:     s,
				Crashed: -1,
			})
		}
	}
	for _, m := range AllMemModes() {
		for id := 0; id < n; id++ {
			s := &MemSpec{Node: id, Mode: m, Rate: 1, Seed: caseSeed, ActivateStage: 1, StuckValue: stuckValue}
			cases = append(cases, Case{
				Name:    fmt.Sprintf("mem/%v/n%d", m, id),
				Class:   ClassMemory,
				Mem:     s,
				Crashed: -1,
			})
		}
	}
	return cases
}
