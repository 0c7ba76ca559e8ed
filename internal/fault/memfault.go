package fault

import (
	"fmt"
	"math/rand"
)

// MemMode enumerates faulty-memory behaviours, after Kopelowitz &
// Talmon (arXiv:1204.5229): resident memory cells that corrupt between
// accesses. The corruption strikes the node's resident key slice at
// stage boundaries — the node then proceeds honestly on the corrupted
// state, so (as with comparison faults) no message is ever tampered
// and detection falls to the application-level predicates at honest
// peers.
type MemMode int

const (
	// MemFlip flips one random bit of each affected cell — a soft
	// error in a value word.
	MemFlip MemMode = iota + 1
	// MemStuck resets each affected cell to the stuck value — a
	// stuck-at cell re-read between stages.
	MemStuck
	// MemWipe overwrites a random contiguous region with the stuck
	// value — a lost page or row.
	MemWipe
)

var memModeNames = map[MemMode]string{
	MemFlip:  "mem-flip",
	MemStuck: "mem-stuck",
	MemWipe:  "mem-wipe",
}

// String returns the mode's kebab-case name.
func (m MemMode) String() string {
	if n, ok := memModeNames[m]; ok {
		return n
	}
	return fmt.Sprintf("memmode(%d)", int(m))
}

// AllMemModes lists every memory-fault mode, for sweeps.
func AllMemModes() []MemMode { return []MemMode{MemFlip, MemStuck, MemWipe} }

// MemSpec describes one injected memory fault.
type MemSpec struct {
	// Node is the node with faulty memory.
	Node int
	// Mode is the corruption discipline.
	Mode MemMode
	// Rate is the corruption probability per stage boundary: per cell
	// for MemFlip and MemStuck, per boundary (one region) for MemWipe.
	Rate float64
	// Seed makes the corruption pattern deterministic.
	Seed int64
	// ActivateStage is the first stage boundary at which memory
	// corrupts (>= 1 per environmental assumption 5; a corruption
	// before the first exchange would amount to different input data).
	ActivateStage int
	// StuckValue is what stuck-at cells and wiped regions read back.
	StuckValue int64
}

// Validate rejects malformed specs.
func (s MemSpec) Validate(nodes int) error {
	if s.Node < 0 || s.Node >= nodes {
		return fmt.Errorf("fault: node %d outside [0,%d)", s.Node, nodes)
	}
	if _, ok := memModeNames[s.Mode]; !ok {
		return fmt.Errorf("fault: unknown memory mode %d", int(s.Mode))
	}
	if s.Rate < 0 || s.Rate > 1 {
		return fmt.Errorf("fault: memory corruption rate %v outside [0,1]", s.Rate)
	}
	if s.ActivateStage < 1 {
		return fmt.Errorf("fault: activate stage %d violates assumption 5 (must be >= 1)", s.ActivateStage)
	}
	return nil
}

// Corruptor builds the stage-boundary corruption hook implementing the
// spec, suitable for core.Options.CorruptMemory at the faulty node. It
// mutates the resident block in place. Deterministic given Seed; the random
// stream is per-corruptor state, so build a fresh one per run.
func (s MemSpec) Corruptor() func(stage int, keys []int64) {
	rng := rand.New(rand.NewSource(s.Seed))
	return func(stage int, keys []int64) {
		if stage < s.ActivateStage || len(keys) == 0 {
			return
		}
		switch s.Mode {
		case MemFlip:
			for i := range keys {
				if rng.Float64() < s.Rate {
					keys[i] ^= 1 << uint(rng.Intn(63))
				}
			}
		case MemStuck:
			for i := range keys {
				if rng.Float64() < s.Rate {
					keys[i] = s.StuckValue
				}
			}
		case MemWipe:
			if rng.Float64() < s.Rate {
				lo := rng.Intn(len(keys))
				hi := lo + 1 + rng.Intn(len(keys)-lo)
				for i := lo; i < hi; i++ {
					keys[i] = s.StuckValue
				}
			}
		}
	}
}
