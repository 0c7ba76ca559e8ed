// Package checker implements the paper's Theorem 1 as an executable
// assertion: a sorting procedure's output is correct only if it is (1)
// a permutation of the input and (2) monotonic. The host-verification
// baseline of Section 5 and the test suites use it as the ground-truth
// oracle against which the distributed algorithms are judged.
package checker

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// ErrNotPermutation indicates the output multiset differs from the input's.
var ErrNotPermutation = errors.New("checker: output is not a permutation of input")

// ErrNotSorted indicates the output violates the required ordering.
var ErrNotSorted = errors.New("checker: output is not sorted")

// IsPermutation reports whether a and b contain the same elements with
// the same multiplicities. It compares sorted copies of both, so it is
// exact and O(n log n) whatever the keys: callers choose the keys, and
// a hash table over chosen keys could be driven to quadratic probing.
func IsPermutation(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	sa, sb := sortedCopy(a), sortedCopy(b)
	defer scratch.Put(sa)
	defer scratch.Put(sb)
	return slices.Equal(*sa, *sb)
}

// scratch pools the sorted copies the checks compare, so a warmed check
// allocates nothing.
var scratch = sync.Pool{New: func() any { return new([]int64) }}

// sortedCopy returns pooled scratch holding keys sorted ascending; the
// caller puts it back.
func sortedCopy(keys []int64) *[]int64 {
	p := scratch.Get().(*[]int64)
	*p = append((*p)[:0], keys...)
	slices.Sort(*p)
	return p
}

// VerifySorted checks condition (2) of Theorem 1 and returns a
// descriptive error naming the first offending index on failure.
func VerifySorted(out []int64, ascending bool) error {
	for i := 1; i < len(out); i++ {
		bad := out[i-1] > out[i]
		if !ascending {
			bad = out[i-1] < out[i]
		}
		if bad {
			return fmt.Errorf("index %d: %d then %d (ascending=%v): %w",
				i-1, out[i-1], out[i], ascending, ErrNotSorted)
		}
	}
	return nil
}

// Verify implements Theorem 1 in full: out must be a sorted
// permutation of in. It returns nil when the result is a correct sort.
// A sorted permutation of in is unique, so out passes exactly when it
// equals a sorted copy of in; only a failing out is examined further,
// to report ErrNotPermutation when it is not a permutation of in and
// VerifySorted's error when it is one that is out of order.
func Verify(in, out []int64, ascending bool) error {
	if len(in) != len(out) {
		return fmt.Errorf("length %d in vs %d out: %w", len(in), len(out), ErrNotPermutation)
	}
	p := sortedCopy(in)
	defer scratch.Put(p)
	sorted := *p
	if !ascending {
		slices.Reverse(sorted)
	}
	if slices.Equal(sorted, out) {
		return nil
	}
	err := VerifySorted(out, ascending)
	if err == nil || !IsPermutation(in, out) {
		return ErrNotPermutation
	}
	return err
}

// VerifyCost returns the comparison count the paper attributes to a
// sequential Theorem 1 verification: matching the ordered and
// unordered lists is equivalent to finding the permutation, an
// O(N log N) comparison process. The harness charges this cost to the
// host in the host-verification baseline.
func VerifyCost(n int) int {
	if n <= 1 {
		return 0
	}
	lg := 0
	for v := n; v > 1; v >>= 1 {
		lg++
	}
	return n * lg
}
