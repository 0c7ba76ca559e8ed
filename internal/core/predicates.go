package core

import (
	"fmt"

	"repro/internal/bitonic"
)

// Progress is Φ_P as the paper states it for one key per node (Figure
// 4a), over a flat sequence. The runner evaluates ProgressBlocks, its
// scaling by m; Progress stays as the reference the m = 1 case of
// ProgressBlocks is tested against. At the end of a regular stage,
// the assembled sequence over the home subcube SC_{i+1} is the
// previous stage's output: its lower half must be sorted ascending and
// its upper half descending (the canonical bitonic form the schedule
// produces — Lemma 2). At the final verification (final == true) the
// whole sequence must be sorted ascending. A violation means some
// processor failed to advance the computation toward the goal.
func Progress(seq []int64, final bool) error {
	if final {
		if i := firstDisorder(seq, true); i >= 0 {
			return fmt.Errorf("final sequence not ascending at offset %d (%d then %d): %w",
				i, seq[i], seq[i+1], ErrProgress)
		}
		return nil
	}
	if len(seq)%2 != 0 {
		return fmt.Errorf("stage sequence length %d is odd: %w", len(seq), ErrProgress)
	}
	half := len(seq) / 2
	if i := firstDisorder(seq[:half], true); i >= 0 {
		return fmt.Errorf("lower half not ascending at offset %d (%d then %d): %w",
			i, seq[i], seq[i+1], ErrProgress)
	}
	if i := firstDisorder(seq[half:], false); i >= 0 {
		return fmt.Errorf("upper half not descending at offset %d (%d then %d): %w",
			half+i, seq[half+i], seq[half+i+1], ErrProgress)
	}
	return nil
}

// firstDisorder returns the first index i where (seq[i], seq[i+1])
// violates the direction, or -1 when the sequence is monotonic.
func firstDisorder(seq []int64, ascending bool) int {
	for i := 1; i < len(seq); i++ {
		if ascending && seq[i-1] > seq[i] {
			return i - 1
		}
		if !ascending && seq[i-1] < seq[i] {
			return i - 1
		}
	}
	return -1
}

// ProgressBlocks is Φ_P scaled by m: each block must be internally
// ascending; for a regular stage the lower half's node-order
// concatenation must be ascending and the upper half's descending,
// which for ascending blocks means its reverse-node-order concatenation
// is ascending; at the final verification the whole node-order
// concatenation must be ascending. Once every block is known to be
// ascending, a concatenation is ascending exactly when each seam
// between consecutive non-empty blocks is ordered, so the
// concatenations are checked at their seams and never built.
func ProgressBlocks(blocks [][]int64, final bool) error {
	for i, b := range blocks {
		if !bitonic.IsSorted(b, true) {
			return fmt.Errorf("block %d not internally sorted: %w", i, ErrProgress)
		}
	}
	if final {
		if !seamsAscending(blocks, false) {
			return fmt.Errorf("final block concatenation not ascending: %w", ErrProgress)
		}
		return nil
	}
	if len(blocks)%2 != 0 {
		return fmt.Errorf("odd block count %d: %w", len(blocks), ErrProgress)
	}
	half := len(blocks) / 2
	if !seamsAscending(blocks[:half], false) {
		return fmt.Errorf("lower half block concatenation not ascending: %w", ErrProgress)
	}
	if !seamsAscending(blocks[half:], true) {
		return fmt.Errorf("upper half reverse concatenation not ascending: %w", ErrProgress)
	}
	return nil
}

// seamsAscending reports whether the concatenation of internally
// ascending blocks, taken in slice order or reversed, is ascending:
// every non-empty block must start at or above the last key of the
// non-empty block before it.
func seamsAscending(blocks [][]int64, reversed bool) bool {
	var last int64
	seen := false
	for k := range blocks {
		b := blocks[k]
		if reversed {
			b = blocks[len(blocks)-1-k]
		}
		if len(b) == 0 {
			continue
		}
		if seen && b[0] < last {
			return false
		}
		last, seen = b[len(b)-1], true
	}
	return true
}

// Feasibility implements Φ_F (Figure 4b): the current stage's
// assembled sequence, restricted to the checking node's half, must be
// exactly the multiset of the previously verified sequence over that
// same subcube — the intermediate result stays inside the solution
// space (no sort key is invented, dropped, or duplicated). Residents
// of the other half run the mirror-image check, so the union of local
// checks is a global permutation test.
func Feasibility(prev, cur []int64) error {
	if len(prev) != len(cur) {
		return fmt.Errorf("sequence lengths %d vs %d: %w", len(prev), len(cur), ErrFeasibility)
	}
	counts := make(map[int64]int, len(prev))
	for _, v := range prev {
		counts[v]++
	}
	for _, v := range cur {
		counts[v]--
		if counts[v] < 0 {
			return fmt.Errorf("value %d appears more often than in previous stage: %w", v, ErrFeasibility)
		}
	}
	// Balanced counts with equal lengths imply none remain positive,
	// but report the first missing value explicitly for diagnostics.
	// Scan prev in order (not the counts map) so the reported value is
	// deterministic run-to-run.
	for _, v := range prev {
		if counts[v] > 0 {
			return fmt.Errorf("value %d from previous stage is missing: %w", v, ErrFeasibility)
		}
	}
	return nil
}

// DigestOutcome records how a digest-accelerated Φ_C merge resolved,
// for virtual-time charging and observability.
type DigestOutcome int

const (
	// DigestNone: the view failed validation before the digest pass,
	// and the check charges element-level work.
	DigestNone DigestOutcome = iota
	// DigestHit: digests agreed and the element-level scan was
	// skipped.
	DigestHit
	// DigestMiss: digests disagreed; the element-level slow path ran
	// to produce attribution evidence.
	DigestMiss
)

// FeasibilityTwoPointer is the paper's literal Φ_F (Figure 4b): it
// walks the current sequence in sort order, consuming the previous
// *bitonic* sequence from both ends with two cursors (l from the
// ascending run, u from the descending run); every element must match
// one of the cursors. It requires prev to be bitonic in the canonical
// up-down form and cur to be sorted ascending — exactly the state at a
// stage boundary. Under those preconditions it is equivalent to the
// multiset test Feasibility implements (property-tested), in O(n) time
// and O(1) space instead of a counting map.
func FeasibilityTwoPointer(prev, cur []int64) error {
	if len(prev) != len(cur) {
		return fmt.Errorf("sequence lengths %d vs %d: %w", len(prev), len(cur), ErrFeasibility)
	}
	l, u := 0, len(prev)-1
	for m := 0; m < len(cur); m++ {
		switch {
		case l <= u && cur[m] == prev[l]:
			l++
		case l <= u && cur[m] == prev[u]:
			u--
		default:
			return fmt.Errorf("element %d (value %d) matches neither cursor of previous sequence: %w",
				m, cur[m], ErrFeasibility)
		}
	}
	return nil
}
