package bitonic

import (
	"fmt"
	"math/rand"
	"testing"
)

func randKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63()
	}
	return xs
}

func BenchmarkSort(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := randKeys(n, 1)
			buf := make([]int64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				if _, err := Sort(buf, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMerge(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			// Build a bitonic input: ascending then descending halves.
			src := randKeys(n, 2)
			if _, err := Sort(src[:n/2], true); err != nil {
				b.Fatal(err)
			}
			if _, err := Sort(src[n/2:], false); err != nil {
				b.Fatal(err)
			}
			buf := make([]int64, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, src)
				if _, err := Merge(buf, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMergeSplit(b *testing.B) {
	for _, m := range []int{64, 1024} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			x := randKeys(m, 3)
			y := randKeys(m, 4)
			if _, err := Sort(x, true); err != nil {
				b.Fatal(err)
			}
			if _, err := Sort(y, true); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := MergeSplit(x, y); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMergeSortCount(b *testing.B) {
	src := randKeys(4096, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MergeSortCount(src)
	}
}

func BenchmarkIsBitonic(b *testing.B) {
	xs := randKeys(4096, 6)
	if _, err := Sort(xs[:2048], true); err != nil {
		b.Fatal(err)
	}
	if _, err := Sort(xs[2048:], false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !IsBitonic(xs) {
			b.Fatal("not bitonic")
		}
	}
}

// comparesSink keeps the benchmarked sorts' counts live.
var comparesSink int

// BenchmarkMsortCount times the counting merge sort at the block
// lengths the FT runner's local sort sees (m = 512–2,048 on the large
// service workload).
func BenchmarkMsortCount(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 2048} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			src := randKeys(n, 7)
			xs, buf := make([]int64, n), make([]int64, n)
			b.SetBytes(int64(8 * n))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(xs, src)
				comparesSink = msortCount(xs, buf)
			}
		})
	}
}
