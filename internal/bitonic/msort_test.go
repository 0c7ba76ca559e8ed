package bitonic

import (
	"math/rand"
	"slices"
	"testing"
)

// msortCountCopying is the counting merge sort as it was written before
// each level sorted its halves into the array its merge reads: every
// level copies its sorted halves into buf and merges them back into
// xs, counting one comparison per key emitted while both runs last. It
// stays as the reference msortCount is held to.
func msortCountCopying(xs, buf []int64) int {
	n := len(xs)
	if n <= 1 {
		return 0
	}
	mid := n / 2
	c := msortCountCopying(xs[:mid], buf[:mid])
	c += msortCountCopying(xs[mid:], buf[mid:])
	copy(buf[:n], xs)
	i, j := 0, mid
	for k := 0; k < n; k++ {
		switch {
		case i >= mid:
			xs[k] = buf[j]
			j++
		case j >= n:
			xs[k] = buf[i]
			i++
		default:
			c++
			if buf[i] <= buf[j] {
				xs[k] = buf[i]
				i++
			} else {
				xs[k] = buf[j]
				j++
			}
		}
	}
	return c
}

// TestMsortCountMatchesCopyingReference pins msortCount's output and
// comparison count to the copying reference for every n up to 2,000,
// with keys drawn from 4 values (runs of duplicates, where the tie
// rule decides the count) and from 2^62, over a dirty scratch buffer
// longer than the input.
func TestMsortCountMatchesCopyingReference(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	buf := make([]int64, 2003)
	for n := 0; n <= 2000; n++ {
		for _, spread := range []int64{4, 1 << 62} {
			xs := make([]int64, n)
			for i := range xs {
				xs[i] = rng.Int63n(spread) - spread/2
			}
			want := slices.Clone(xs)
			wantC := msortCountCopying(want, make([]int64, n))
			for i := range buf {
				buf[i] = -7
			}
			if c := msortCount(xs, buf[:n+3]); c != wantC || !slices.Equal(xs, want) {
				t.Fatalf("n=%d spread=%d: compares %d, reference %d; sorted equal: %v",
					n, spread, c, wantC, slices.Equal(xs, want))
			}
		}
	}
}

// The local sort the FT runner makes at every job start sorts in place
// over its kept scratch without allocating.
func TestParallelSortInPlaceZeroAllocs(t *testing.T) {
	src := randKeys(2048, 7)
	xs, buf := make([]int64, len(src)), make([]int64, len(src))
	if n := testing.AllocsPerRun(100, func() {
		copy(xs, src)
		ParallelSortInPlace(xs, buf, 0)
	}); n != 0 {
		t.Errorf("ParallelSortInPlace: %v allocs/op, want 0", n)
	}
}
