package bitonic

import (
	"math/rand"
	"slices"
	"testing"
)

// naiveMergePoint recomputes mergePoint by actually running the
// sequential merge and counting how many of the first k outputs came
// from a.
func naiveMergePoint(a, b []int64, k int) int {
	i, j := 0, 0
	for i+j < k {
		if i < len(a) && (j >= len(b) || a[i] <= b[j]) {
			i++
		} else {
			j++
		}
	}
	return i
}

func TestMergePointMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 500; trial++ {
		la, lb := rng.Intn(20), rng.Intn(20)
		a := sortedRandom(rng, la)
		b := sortedRandom(rng, lb)
		for k := 0; k <= la+lb; k++ {
			if got, want := mergePoint(a, b, k), naiveMergePoint(a, b, k); got != want {
				t.Fatalf("mergePoint(%v, %v, %d) = %d, want %d", a, b, k, got, want)
			}
		}
	}
}

func sortedRandom(rng *rand.Rand, n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(12)) // duplicates stress the tie rule
	}
	out, _ := MergeSortCount(xs)
	return out
}

// countingMerge runs the literal two-cursor merge and reports its
// comparison count — the ground truth sequentialMergeCompares must
// reproduce in O(log).
func countingMerge(a, b []int64) (out []int64, compares int) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		compares++
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out, compares
}

func TestSequentialMergeComparesMatchesCountingMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 1000; trial++ {
		a := sortedRandom(rng, rng.Intn(24))
		b := sortedRandom(rng, rng.Intn(24))
		_, want := countingMerge(a, b)
		if got := sequentialMergeCompares(a, b); got != want {
			t.Fatalf("sequentialMergeCompares(%v, %v) = %d, want %d", a, b, got, want)
		}
	}
}

// TestParallelMergeMatchesSequential forces the parallel partition on
// tiny inputs across worker counts: output must be byte-identical to
// the sequential merge for every partition.
func TestParallelMergeMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 400; trial++ {
		a := sortedRandom(rng, 1+rng.Intn(40))
		b := sortedRandom(rng, 1+rng.Intn(40))
		want := make([]int64, len(a)+len(b))
		seqMergeInto(want, a, b)
		for _, workers := range []int{1, 2, 3, 4, 7, 16} {
			got := make([]int64, len(a)+len(b))
			parallelMergeInto(got, a, b, workers)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("workers=%d: merge diverges at %d: %v vs %v (a=%v b=%v)",
						workers, i, got, want, a, b)
				}
			}
		}
	}
}

// TestMergeSplitParallelMatchesSequential drives the cutoff-
// parameterized internals so the parallel path runs on small blocks,
// and checks lo/hi/compares against MergeSplitInto exactly.
func TestMergeSplitParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 400; trial++ {
		m := 1 + rng.Intn(48)
		a := sortedRandom(rng, m)
		b := sortedRandom(rng, m)
		wantLo, wantHi, wantC, err := MergeSplitInto(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2, 3, 8} {
			lo, hi, c, err := mergeSplitParallelInto(nil, a, b, workers, 2)
			if err != nil {
				t.Fatal(err)
			}
			if c != wantC {
				t.Fatalf("workers=%d m=%d: compares %d, want %d", workers, m, c, wantC)
			}
			for i := range wantLo {
				if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
					t.Fatalf("workers=%d m=%d: split diverges at %d", workers, m, i)
				}
			}
		}
	}
}

// TestMergeSplitParallelRejectsMismatchedBlocks pins the error contract
// to MergeSplitInto's.
func TestMergeSplitParallelRejectsMismatchedBlocks(t *testing.T) {
	if _, _, _, err := MergeSplitParallelInto(nil, []int64{1, 2}, []int64{3}, 0); err == nil {
		t.Fatal("mismatched block lengths accepted")
	}
}

// TestParallelMergeSortCountMatchesSequential pins both the sorted
// output and the comparison count of the parallel sort to the
// sequential MergeSortCount, across worker counts and a forced-low
// cutoff (whitebox psortCount so small inputs take the parallel path).
func TestParallelMergeSortCountMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(40))
		}
		wantSorted, wantC := MergeSortCount(xs)
		for _, workers := range []int{1, 2, 3, 8} {
			got := append([]int64{}, xs...)
			buf := make([]int64, n)
			c := psortCount(got, buf, workers, 2)
			if c != wantC {
				t.Fatalf("workers=%d n=%d: compares %d, want %d", workers, n, c, wantC)
			}
			for i := range wantSorted {
				if got[i] != wantSorted[i] {
					t.Fatalf("workers=%d n=%d: sort diverges at %d", workers, n, i)
				}
			}
		}
		// The exported entry points must agree too (cutoff applies, so
		// small n stays sequential — output is identical either way).
		gotSorted, gotC := ParallelMergeSortCount(xs, 4)
		if gotC != wantC {
			t.Fatalf("exported: compares %d, want %d", gotC, wantC)
		}
		for i := range wantSorted {
			if gotSorted[i] != wantSorted[i] {
				t.Fatalf("exported: sort diverges at %d", i)
			}
		}
		// In place, over a dirty scratch buffer longer than the input.
		got := append([]int64{}, xs...)
		buf := make([]int64, n+3)
		for i := range buf {
			buf[i] = -7
		}
		if c := ParallelSortInPlace(got, buf, 4); c != wantC || !slices.Equal(got, wantSorted) {
			t.Fatalf("in place: compares %d, want %d; sorted %v, want %v", c, wantC, got, wantSorted)
		}
	}
}

// FuzzMergeSplitParallel is the satellite fuzz target: for arbitrary
// equal-length sorted blocks and any worker count, the parallel
// merge-split must produce exactly the sequential outputs and count.
func FuzzMergeSplitParallel(f *testing.F) {
	f.Add(int64(1), 8, 4)
	f.Add(int64(42), 64, 3)
	f.Add(int64(7), 1, 1)
	f.Fuzz(func(t *testing.T, seed int64, m, workers int) {
		if m <= 0 || m > 1<<12 || workers < 1 || workers > 64 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		a := sortedRandom(rng, m)
		b := sortedRandom(rng, m)
		wantLo, wantHi, wantC, err := MergeSplitInto(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, c, err := mergeSplitParallelInto(nil, a, b, workers, 2)
		if err != nil {
			t.Fatal(err)
		}
		if c != wantC {
			t.Fatalf("compares %d, want %d", c, wantC)
		}
		for i := 0; i < m; i++ {
			if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
				t.Fatalf("split diverges at %d: parallel (%v, %v) vs sequential (%v, %v)",
					i, lo, hi, wantLo, wantHi)
			}
		}
	})
}

// BenchmarkMergeSplitSeqVsPar is the satellite microbenchmark:
// sequential vs parallel merge-split across block lengths and worker
// counts. The parallel rows force the path with a cutoff of 2 so the
// small-m rows show the fan-out overhead the DefaultParallelCutoff
// exists to avoid.
func BenchmarkMergeSplitSeqVsPar(b *testing.B) {
	for _, m := range []int{1 << 10, 1 << 14, 1 << 17} {
		a := make([]int64, m)
		bb := make([]int64, m)
		for i := 0; i < m; i++ {
			a[i] = int64(2 * i)
			bb[i] = int64(2*i + 1)
		}
		dst := make([]int64, 2*m)
		b.Run(benchName("seq", m, 1), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := MergeSplitInto(dst[:0], a, bb); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, workers := range []int{2, 4, 8} {
			b.Run(benchName("par", m, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := mergeSplitParallelInto(dst[:0], a, bb, workers, 2); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func benchName(kind string, m, workers int) string {
	return kind + "/m=" + itoa(m) + "/workers=" + itoa(workers)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// BenchmarkParallelMergeSortCount compares the sequential and parallel
// sorts on a host-scale input (the hostsort baseline's workload).
func BenchmarkParallelMergeSortCount(b *testing.B) {
	const n = 1 << 16
	rng := rand.New(rand.NewSource(26))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63()
	}
	b.Run("seq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			MergeSortCount(xs)
		}
	})
	for _, workers := range []int{2, 4, 8} {
		b.Run("par/workers="+itoa(workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ParallelMergeSortCount(xs, workers)
			}
		})
	}
}
