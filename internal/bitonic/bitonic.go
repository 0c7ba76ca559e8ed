// Package bitonic implements Batcher's bitonic sequence primitives
// (Batcher, 1968): compare-exchange, bitonic merge, full bitonic sort,
// and the sequence predicates of the paper's Definition 2. These are
// the building blocks of both the distributed algorithms (S_NR, S_FT)
// and the local phases of block sorting.
package bitonic

import (
	"fmt"

	"repro/internal/hypercube"
)

// CompareExchange returns (min, max) of its arguments — the
// fundamental bitonic operation.
func CompareExchange(a, b int64) (lo, hi int64) {
	if a <= b {
		return a, b
	}
	return b, a
}

// IsSorted reports whether xs is monotonic in the given direction
// (non-decreasing when ascending, non-increasing otherwise). Empty and
// single-element sequences are sorted.
func IsSorted(xs []int64, ascending bool) bool {
	for i := 1; i < len(xs); i++ {
		if ascending && xs[i-1] > xs[i] {
			return false
		}
		if !ascending && xs[i-1] < xs[i] {
			return false
		}
	}
	return true
}

// IsBitonic reports whether xs satisfies the paper's Definition 2:
// there is an index i such that the sequence is non-decreasing up to i
// and non-increasing after it, or the mirror form. Monotonic sequences
// are (degenerate) bitonic. The empty sequence is bitonic.
func IsBitonic(xs []int64) bool {
	return isUpDown(xs) || isDownUp(xs)
}

func isUpDown(xs []int64) bool {
	i := 1
	for i < len(xs) && xs[i-1] <= xs[i] {
		i++
	}
	for i < len(xs) && xs[i-1] >= xs[i] {
		i++
	}
	return i >= len(xs)
}

func isDownUp(xs []int64) bool {
	i := 1
	for i < len(xs) && xs[i-1] >= xs[i] {
		i++
	}
	for i < len(xs) && xs[i-1] <= xs[i] {
		i++
	}
	return i >= len(xs)
}

// IsBitonicRotation reports whether some cyclic rotation of xs is
// bitonic — the closure Batcher's merge actually accepts. It counts
// the number of "direction changes" around the cycle; a rotation of a
// bitonic sequence has at most two.
func IsBitonicRotation(xs []int64) bool {
	n := len(xs)
	if n <= 2 {
		return true
	}
	changes := 0
	// sign of the step from i to i+1 (cyclically), ignoring equal steps
	prev := 0
	for i := 0; i < n; i++ {
		a, b := xs[i], xs[(i+1)%n]
		var s int
		switch {
		case a < b:
			s = 1
		case a > b:
			s = -1
		default:
			continue
		}
		if prev != 0 && s != prev {
			changes++
		}
		prev = s
	}
	// Close the cycle: compare last non-flat sign with first.
	return changes <= 2
}

// Merge performs an in-place bitonic merge: given a bitonic xs of
// power-of-two length, it produces a sorted sequence in the given
// direction. It returns the number of comparisons performed (for cost
// accounting) and an error for non-power-of-two lengths.
func Merge(xs []int64, ascending bool) (compares int, err error) {
	if !hypercube.IsPow2(len(xs)) && len(xs) != 0 {
		return 0, fmt.Errorf("bitonic: merge length %d is not a power of two", len(xs))
	}
	return merge(xs, ascending), nil
}

func merge(xs []int64, ascending bool) int {
	n := len(xs)
	if n <= 1 {
		return 0
	}
	half := n / 2
	c := half
	for i := 0; i < half; i++ {
		if (xs[i] > xs[i+half]) == ascending {
			xs[i], xs[i+half] = xs[i+half], xs[i]
		}
	}
	c += merge(xs[:half], ascending)
	c += merge(xs[half:], ascending)
	return c
}

// Sort performs an in-place Batcher bitonic sort of a power-of-two
// length slice and returns the number of comparisons performed. A
// sequential bitonic sort costs O(N log² N) comparisons; the harness
// uses the returned count to charge virtual time.
func Sort(xs []int64, ascending bool) (compares int, err error) {
	if !hypercube.IsPow2(len(xs)) && len(xs) != 0 {
		return 0, fmt.Errorf("bitonic: sort length %d is not a power of two", len(xs))
	}
	return bsort(xs, ascending), nil
}

func bsort(xs []int64, ascending bool) int {
	n := len(xs)
	if n <= 1 {
		return 0
	}
	half := n / 2
	c := bsort(xs[:half], true)
	c += bsort(xs[half:], false)
	c += merge(xs, ascending)
	return c
}

// Comparator reports whether a orders at or before b — the honest
// comparator is Leq (a <= b). The compare paths of the distributed
// sorts are pluggable through this hook so fault injection can model
// comparators that lie (Geissmann et al.'s persistent random
// comparison faults): a lying comparator changes which keys travel
// where without touching any message, the adversary axis the Φ
// predicates must catch at the application level.
type Comparator func(a, b int64) bool

// Leq is the honest comparator.
func Leq(a, b int64) bool { return a <= b }

// MergeSplit is the block-sorting compare-exchange (Section 5's
// bitonic sort/merge with m elements per node): given two sorted
// ascending blocks a and b of equal length m, it returns the smallest
// m elements (sorted ascending) and the largest m elements (sorted
// ascending), plus the comparison count of the linear merge.
func MergeSplit(a, b []int64) (lo, hi []int64, compares int, err error) {
	return MergeSplitInto(nil, a, b)
}

// MergeSplitInto is MergeSplit merging into a caller-owned scratch
// buffer (grown as needed), so steady-state block exchanges allocate
// nothing. The returned lo and hi alias the scratch; dst must not
// overlap a or b.
func MergeSplitInto(dst []int64, a, b []int64) (lo, hi []int64, compares int, err error) {
	if len(a) != len(b) {
		return nil, nil, 0, fmt.Errorf("bitonic: merge-split blocks differ in length: %d vs %d", len(a), len(b))
	}
	m := len(a)
	var merged []int64
	if cap(dst) < 2*m {
		merged = make([]int64, 0, 2*m)
	} else {
		merged = dst[:0]
	}
	i, j := 0, 0
	for i < m && j < m {
		compares++
		if a[i] <= b[j] {
			merged = append(merged, a[i])
			i++
		} else {
			merged = append(merged, b[j])
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	lo = merged[:m:m]
	hi = merged[m:]
	return lo, hi, compares, nil
}

// MergeSplitFuncInto is MergeSplitInto with a pluggable comparator: the
// linear merge consults leq instead of the machine's <=. It exists for
// comparison-fault injection — a lying leq silently misroutes keys —
// and is kept separate from MergeSplitInto so the honest hot path pays
// no indirect call.
func MergeSplitFuncInto(dst []int64, a, b []int64, leq Comparator) (lo, hi []int64, compares int, err error) {
	if leq == nil {
		return MergeSplitInto(dst, a, b)
	}
	if len(a) != len(b) {
		return nil, nil, 0, fmt.Errorf("bitonic: merge-split blocks differ in length: %d vs %d", len(a), len(b))
	}
	m := len(a)
	var merged []int64
	if cap(dst) < 2*m {
		merged = make([]int64, 0, 2*m)
	} else {
		merged = dst[:0]
	}
	i, j := 0, 0
	for i < m && j < m {
		compares++
		if leq(a[i], b[j]) {
			merged = append(merged, a[i])
			i++
		} else {
			merged = append(merged, b[j])
			j++
		}
	}
	merged = append(merged, a[i:]...)
	merged = append(merged, b[j:]...)
	lo = merged[:m:m]
	hi = merged[m:]
	return lo, hi, compares, nil
}

// MergeSortCount sorts a copy of xs ascending with a top-down merge
// sort and returns the comparison count, so harnesses can charge
// deterministic virtual time for sequential sorting. The input is not
// modified.
func MergeSortCount(xs []int64) (sorted []int64, compares int) {
	out := append([]int64{}, xs...)
	if len(out) <= 1 {
		return out, 0
	}
	buf := make([]int64, len(out))
	return out, msortCount(out, buf)
}

// msortCount sorts xs ascending in place with a top-down merge sort,
// buf (at least len(xs) long) its scratch, and returns the comparison
// count.
func msortCount(xs, buf []int64) int {
	return msort(xs, buf[:len(xs)], false)
}

// msort sorts xs ascending into buf when toBuf, else in place, using
// the other slice (as long as xs) as scratch. It splits at n/2 and
// sorts each half into the slice the merge reads, the other one, so no
// level copies its input before merging. A merge compares once per key
// it emits until one run runs out (seqMergeInto's count); a two-key
// run is that merge of two one-key runs, written out.
func msort(xs, buf []int64, toBuf bool) int {
	n := len(xs)
	if n <= 1 {
		if toBuf {
			copy(buf, xs)
		}
		return 0
	}
	if n == 2 {
		dst := xs
		if toBuf {
			dst = buf
		}
		dst[0], dst[1] = CompareExchange(xs[0], xs[1])
		return 1
	}
	mid := n / 2
	c := msort(xs[:mid], buf[:mid], !toBuf)
	c += msort(xs[mid:], buf[mid:], !toBuf)
	src, dst := buf, xs
	if toBuf {
		src, dst = xs, buf
	}
	return c + seqMergeInto(dst, src[:mid], src[mid:])
}

// Reverse reverses xs in place. Block sorting uses it to flip a sorted
// block between ascending and descending representations.
func Reverse(xs []int64) {
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
}

// MinMax returns the smallest and largest values of a non-empty slice.
func MinMax(xs []int64) (min, max int64, err error) {
	if len(xs) == 0 {
		return 0, 0, fmt.Errorf("bitonic: MinMax of empty slice")
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, nil
}
