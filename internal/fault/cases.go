package fault

import (
	"fmt"
	"slices"

	"repro/internal/core"
)

// Case describes one faulty node: at most one faulty component, drawn
// from the full four-way Class taxonomy (message, absence, comparison,
// memory). A Set of Cases is one fault placement, which Set.Options
// arms, Follow keeps on its physical machines across recovery
// attempts, and Inject and Run run and judge. A Case is also one cell
// of the interleaving explorer's single-fault sweep, where the zero
// Case (no fault at all) is the fault-free case — the explorer asserts
// the fault-free protocol sorts under every schedule.
type Case struct {
	// Name uniquely identifies the case within a sweep, e.g.
	// "msg/key-lie/n1/s2" or "mem/mem-stuck/n3".
	Name string
	// Class is the adversary class, 0 for the fault-free case.
	Class Class

	// At most one of the following is non-nil.

	// Msg is a Byzantine message fault (or Silence, observed as
	// absence).
	Msg *Spec
	// Cmp is a lying-comparator fault.
	Cmp *CmpSpec
	// Mem is a resident-memory corruption fault.
	Mem *MemSpec
	// Crashed is the label of a node crashed outright: fail-stop from
	// time zero, so it runs no program.
	Crashed *int
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
	case c.Crashed != nil:
		return *c.Crashed
	}
	return -1
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
	case c.Crashed != nil:
		c.Crashed = &node
	}
	return c
}

// Set is one fault placement: the cases whose faults strike a run
// together, of any classes, at most one per node. The empty Set and
// the zero Case arm nothing.
type Set []Case

// Validate rejects a malformed fault, a case naming more than one
// fault, a node outside [0, nodes), and two faults on one node.
func (s Set) Validate(nodes int) error {
	seen := make(map[int]bool, len(s))
	for _, c := range s {
		named := 0
		for _, given := range []bool{c.Msg != nil, c.Cmp != nil, c.Mem != nil, c.Crashed != nil} {
			if given {
				named++
			}
		}
		var err error
		switch {
		case named > 1:
			err = fmt.Errorf("fault: case %q names %d faults", c.Name, named)
		case c.Msg != nil:
			err = c.Msg.Validate(nodes)
		case c.Cmp != nil:
			err = c.Cmp.Validate(nodes)
		case c.Mem != nil:
			err = c.Mem.Validate(nodes)
		case c.Crashed != nil && (*c.Crashed < 0 || *c.Crashed >= nodes):
			err = fmt.Errorf("fault: crashed node %d outside [0,%d)", *c.Crashed, nodes)
		}
		if err != nil {
			return err
		}
		if id := c.Faulty(); id >= 0 {
			if seen[id] {
				return fmt.Errorf("fault: node %d carries two faults", id)
			}
			seen[id] = true
		}
	}
	return nil
}

// Options builds the per-node S_FT options arming every case of s on
// an n-node cube. SkipChecks disarms each faulty node's own detectors:
// a Byzantine machine does not police itself, its honest peers must
// catch it. Each call builds fresh comparators and corruptors, whose
// random streams then restart. A crashed node's options stay zero: it
// runs no program at all (Run).
func (s Set) Options(n int) []core.Options {
	opts := make([]core.Options, n)
	for _, c := range s {
		switch {
		case c.Msg != nil:
			opts[c.Msg.Node] = core.Options{SkipChecks: true, Tamper: c.Msg.Tamper()}
		case c.Cmp != nil:
			opts[c.Cmp.Node] = core.Options{SkipChecks: true, Compare: c.Cmp.Comparator()}
		case c.Mem != nil:
			opts[c.Mem.Node] = core.Options{SkipChecks: true, CorruptMemory: c.Mem.Corruptor()}
		}
	}
	return opts
}

// Follow returns the per-attempt injector (reliablesort.Options.Inject)
// that keeps each case of s on the physical machine its own node
// names, across recovery. physical[l] is the machine at logical slot l
// of an attempt's cube, so each attempt arms each case at the slot its
// machine holds: a spare substituted in carries it from its new slot,
// and a shrink relabels it. A transient placement strikes attempt 0
// only. A persistent one strikes every attempt, each case while its
// machine is in the cube and not once quarantine has removed it — a
// repaired machine. Every call arms afresh (Options), so a retried
// attempt replays the same lies; the injector is safe for concurrent
// use. A crash cannot be injected this way: its machine still runs.
func Follow(s Set, persistent bool) func(attempt, dim int, physical []int) []core.Options {
	return func(attempt, _ int, physical []int) []core.Options {
		if attempt > 0 && !persistent {
			return nil
		}
		var armed Set
		for _, c := range s {
			if l := slices.Index(physical, c.Faulty()); l >= 0 {
				armed = append(armed, c.At(l))
			}
		}
		if armed == nil {
			return nil
		}
		return armed.Options(len(physical))
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
	cases := []Case{{Name: "none"}}
	for _, st := range AllStrategies() {
		for id := 0; id < n; id++ {
			for stage := 1; stage <= dim; stage++ {
				s := &Spec{Node: id, Strategy: st, ActivateStage: stage, LieValue: lieValue}
				cases = append(cases, Case{
					Name:  fmt.Sprintf("msg/%v/n%d/s%d", st, id, stage),
					Class: st.Class(),
					Msg:   s,
				})
			}
		}
	}
	for id := 0; id < n; id++ {
		cases = append(cases, Case{
			Name:    fmt.Sprintf("crash/n%d", id),
			Class:   ClassAbsence,
			Crashed: &id,
		})
	}
	for _, m := range AllCmpModes() {
		for id := 0; id < n; id++ {
			s := &CmpSpec{Node: id, Mode: m, Rate: 1, Seed: caseSeed, ActivateStage: 1}
			cases = append(cases, Case{
				Name:  fmt.Sprintf("cmp/%v/n%d", m, id),
				Class: ClassComparison,
				Cmp:   s,
			})
		}
	}
	for _, m := range AllMemModes() {
		for id := 0; id < n; id++ {
			s := &MemSpec{Node: id, Mode: m, Rate: 1, Seed: caseSeed, ActivateStage: 1, StuckValue: stuckValue}
			cases = append(cases, Case{
				Name:  fmt.Sprintf("mem/%v/n%d", m, id),
				Class: ClassMemory,
				Mem:   s,
			})
		}
	}
	return cases
}
