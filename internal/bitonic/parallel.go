package bitonic

import (
	"fmt"
	"runtime"
	"sync"
)

// This file adds data-parallel variants of the merge primitives for
// large block lengths m: the merge of two sorted runs is split across
// cores with the merge-path partition (each worker binary-searches its
// output range's boundaries, then merges its slice independently).
// Every parallel variant produces output — and reports comparison
// counts — bit-identical to its sequential counterpart, so virtual-time
// accounting and golden series are unaffected by the worker count: the
// count charged is the number of comparisons the sequential two-cursor
// merge would perform, computed in O(log) by sequentialMergeCompares,
// not the (nondeterministic) number the workers happen to execute.

// DefaultParallelCutoff is the total merged length below which the
// parallel variants fall back to the sequential code path: goroutine
// fan-out only pays for itself on large m.
const DefaultParallelCutoff = 1 << 14

// mergePoint returns how many of the first k elements of the merge of
// sorted runs a and b come from a, under the sequential merge's tie
// rule (equal keys: a first). Binary search, O(log min(k, len(a))).
func mergePoint(a, b []int64, k int) int {
	lo, hi := k-len(b), len(a)
	if lo < 0 {
		lo = 0
	}
	if hi > k {
		hi = k
	}
	for lo < hi {
		i := int(uint(lo+hi) / 2)
		// i < hi <= min(k, len(a)) and i >= lo >= k-len(b), so both
		// indexes below are in range.
		if a[i] <= b[k-i-1] {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// countLess returns how many elements of sorted xs are < x.
func countLess(xs []int64, x int64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		i := int(uint(lo+hi) / 2)
		if xs[i] < x {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// countLeq returns how many elements of sorted xs are <= x.
func countLeq(xs []int64, x int64) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		i := int(uint(lo+hi) / 2)
		if xs[i] <= x {
			lo = i + 1
		} else {
			hi = i
		}
	}
	return lo
}

// sequentialMergeCompares returns the number of comparisons the
// sequential two-cursor merge (tie rule: a first) performs merging
// sorted runs a and b: one per emitted element until one run exhausts.
// If a exhausts first (a's last element orders at or before b's), that
// takes len(a) emissions from a plus one for every b element emitted
// before it; symmetrically for b.
func sequentialMergeCompares(a, b []int64) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	if a[len(a)-1] <= b[len(b)-1] {
		return len(a) + countLess(b, a[len(a)-1])
	}
	return len(b) + countLeq(a, b[len(b)-1])
}

// seqMergeInto merges sorted runs a and b into dst (len(a)+len(b)
// long) with the canonical tie rule.
func seqMergeInto(dst, a, b []int64) {
	i, j, k := 0, 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			dst[k] = a[i]
			i++
		} else {
			dst[k] = b[j]
			j++
		}
		k++
	}
	copy(dst[k:], a[i:])
	copy(dst[k+len(a)-i:], b[j:])
}

// parallelMergeInto merges sorted runs a and b into dst across up to
// workers goroutines. Each worker owns an equal share of the output;
// the merge-path partition makes the shares independent, and the
// shared tie rule makes the result identical to seqMergeInto.
func parallelMergeInto(dst, a, b []int64, workers int) {
	n := len(a) + len(b)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		seqMergeInto(dst, a, b)
		return
	}
	do := func(w int) {
		klo, khi := w*n/workers, (w+1)*n/workers
		alo, ahi := mergePoint(a, b, klo), mergePoint(a, b, khi)
		seqMergeInto(dst[klo:khi], a[alo:ahi], b[klo-alo:khi-ahi])
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			do(w)
		}(w)
	}
	do(0)
	wg.Wait()
}

// resolveWorkers maps a worker count, <= 0 meaning GOMAXPROCS, to a
// concrete one.
func resolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// mergeSplitParallelInto is MergeSplitInto with the merge fanned out
// across workers when the merged length reaches cutoff. The cutoff is a
// parameter (rather than the constant) so tests can force the parallel
// path on small inputs.
func mergeSplitParallelInto(dst, a, b []int64, workers, cutoff int) (lo, hi []int64, compares int, err error) {
	if len(a) != len(b) {
		return nil, nil, 0, fmt.Errorf("bitonic: merge-split blocks differ in length: %d vs %d", len(a), len(b))
	}
	m := len(a)
	workers = resolveWorkers(workers)
	if 2*m < cutoff || workers <= 1 {
		return MergeSplitInto(dst, a, b)
	}
	var merged []int64
	if cap(dst) < 2*m {
		merged = make([]int64, 2*m)
	} else {
		merged = dst[:2*m]
	}
	parallelMergeInto(merged, a, b, workers)
	return merged[:m:m], merged[m:], sequentialMergeCompares(a, b), nil
}

// MergeSplitParallelInto is MergeSplitInto for large m: the linear
// merge runs across up to workers cores (<= 0 means GOMAXPROCS) once
// the merged length reaches DefaultParallelCutoff, and sequentially
// below it. Output, aliasing contract, and the reported comparison
// count are identical to MergeSplitInto for every input.
func MergeSplitParallelInto(dst, a, b []int64, workers int) (lo, hi []int64, compares int, err error) {
	return mergeSplitParallelInto(dst, a, b, workers, DefaultParallelCutoff)
}

// psortCount is msortCount with the two half-sorts recursing in
// parallel and the combining merge fanned out, below which (n < cutoff
// or a single worker) it defers to msortCount. Output and comparison
// count are identical to msortCount.
func psortCount(xs, buf []int64, workers, cutoff int) int {
	n := len(xs)
	if n <= 1 {
		return 0
	}
	if workers <= 1 || n < cutoff {
		return msortCount(xs, buf)
	}
	mid := n / 2
	var cLeft int
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		cLeft = psortCount(xs[:mid], buf[:mid], workers/2, cutoff)
	}()
	c := psortCount(xs[mid:], buf[mid:], workers-workers/2, cutoff)
	wg.Wait()
	c += cLeft
	copy(buf[:n], xs)
	parallelMergeInto(xs, buf[:mid], buf[mid:n], workers)
	return c + sequentialMergeCompares(buf[:mid], buf[mid:n])
}

// ParallelMergeSortCount is MergeSortCount across up to workers cores
// (<= 0 means GOMAXPROCS): same sorted output, same comparison count,
// so callers charging virtual time from the count are unaffected by
// the worker count.
func ParallelMergeSortCount(xs []int64, workers int) (sorted []int64, compares int) {
	out := append([]int64{}, xs...)
	if len(out) <= 1 {
		return out, 0
	}
	return out, ParallelSortInPlace(out, make([]int64, len(out)), workers)
}

// ParallelSortInPlace is ParallelMergeSortCount sorting xs itself, with
// buf (at least len(xs) long, contents ignored) as the merge scratch,
// so a caller that keeps both arenas sorts without allocating. It
// returns the comparison count MergeSortCount reports for xs.
func ParallelSortInPlace(xs, buf []int64, workers int) (compares int) {
	return psortCount(xs, buf[:len(xs)], resolveWorkers(workers), DefaultParallelCutoff)
}
