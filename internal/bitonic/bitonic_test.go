package bitonic

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestCompareExchange(t *testing.T) {
	tests := []struct{ a, b, lo, hi int64 }{
		{1, 2, 1, 2}, {2, 1, 1, 2}, {5, 5, 5, 5}, {-3, 0, -3, 0},
	}
	for _, tc := range tests {
		lo, hi := CompareExchange(tc.a, tc.b)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("CompareExchange(%d,%d) = (%d,%d), want (%d,%d)", tc.a, tc.b, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestIsSorted(t *testing.T) {
	tests := []struct {
		name string
		xs   []int64
		asc  bool
		want bool
	}{
		{"empty asc", nil, true, true},
		{"single", []int64{3}, false, true},
		{"asc ok", []int64{1, 2, 2, 3}, true, true},
		{"asc bad", []int64{1, 3, 2}, true, false},
		{"desc ok", []int64{3, 2, 2, 1}, false, true},
		{"desc bad", []int64{3, 1, 2}, false, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsSorted(tc.xs, tc.asc); got != tc.want {
				t.Errorf("IsSorted(%v,%v) = %v, want %v", tc.xs, tc.asc, got, tc.want)
			}
		})
	}
}

func TestIsBitonic(t *testing.T) {
	tests := []struct {
		name string
		xs   []int64
		want bool
	}{
		{"empty", nil, true},
		{"single", []int64{1}, true},
		{"ascending", []int64{1, 2, 3}, true},
		{"descending", []int64{3, 2, 1}, true},
		{"up-down", []int64{1, 5, 9, 7, 2}, true},
		{"down-up", []int64{9, 4, 1, 3, 8}, true},
		{"up-down-up", []int64{1, 5, 2, 6}, false},
		{"down-up-down", []int64{5, 1, 4, 0}, false},
		{"plateau", []int64{2, 2, 2}, true},
		{"up plateau down", []int64{1, 3, 3, 2}, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsBitonic(tc.xs); got != tc.want {
				t.Errorf("IsBitonic(%v) = %v, want %v", tc.xs, got, tc.want)
			}
		})
	}
}

func TestIsBitonicRotation(t *testing.T) {
	base := []int64{1, 4, 9, 6, 3}
	for r := 0; r < len(base); r++ {
		rot := append(append([]int64{}, base[r:]...), base[:r]...)
		if !IsBitonicRotation(rot) {
			t.Errorf("rotation %v of bitonic not accepted", rot)
		}
	}
	if IsBitonicRotation([]int64{1, 5, 2, 6, 3, 7}) {
		t.Error("zig-zag accepted as bitonic rotation")
	}
	if !IsBitonicRotation([]int64{2, 1}) || !IsBitonicRotation(nil) {
		t.Error("tiny sequences must be accepted")
	}
}

func TestMergeSortsBitonicInput(t *testing.T) {
	xs := []int64{1, 4, 9, 16, 14, 7, 3, 0}
	c, err := Merge(xs, true)
	if err != nil {
		t.Fatal(err)
	}
	if !IsSorted(xs, true) {
		t.Fatalf("merged = %v", xs)
	}
	if c != 12 { // N/2 * log2(N) = 4*3
		t.Errorf("compares = %d, want 12", c)
	}
	ys := []int64{1, 4, 9, 16, 14, 7, 3, 0}
	if _, err := Merge(ys, false); err != nil {
		t.Fatal(err)
	}
	if !IsSorted(ys, false) {
		t.Fatalf("desc merged = %v", ys)
	}
}

func TestMergeRejectsNonPow2(t *testing.T) {
	if _, err := Merge(make([]int64, 3), true); err == nil {
		t.Error("length 3: want error")
	}
	if _, err := Merge(nil, true); err != nil {
		t.Errorf("empty merge should be fine: %v", err)
	}
}

func TestSortRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 4, 8, 64, 256} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = int64(rng.Intn(100) - 50)
		}
		want := append([]int64{}, xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		c, err := Sort(xs, true)
		if err != nil {
			t.Fatal(err)
		}
		for i := range xs {
			if xs[i] != want[i] {
				t.Fatalf("n=%d sorted = %v, want %v", n, xs, want)
			}
		}
		if n > 1 && c == 0 {
			t.Errorf("n=%d: zero comparisons reported", n)
		}
	}
}

func TestSortDescending(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 8, 0, 9, 3}
	if _, err := Sort(xs, false); err != nil {
		t.Fatal(err)
	}
	if !IsSorted(xs, false) {
		t.Fatalf("desc sorted = %v", xs)
	}
}

func TestSortRejectsNonPow2(t *testing.T) {
	if _, err := Sort(make([]int64, 6), true); err == nil {
		t.Error("length 6: want error")
	}
}

// Zero-one principle: a comparison network sorts all inputs iff it
// sorts all 0-1 inputs. Exhaustively check all 0-1 vectors up to N=16.
func TestSortZeroOnePrinciple(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16} {
		for mask := 0; mask < 1<<uint(n); mask++ {
			xs := make([]int64, n)
			ones := 0
			for i := 0; i < n; i++ {
				if mask&(1<<uint(i)) != 0 {
					xs[i] = 1
					ones++
				}
			}
			if _, err := Sort(xs, true); err != nil {
				t.Fatal(err)
			}
			for i, x := range xs {
				want := int64(0)
				if i >= n-ones {
					want = 1
				}
				if x != want {
					t.Fatalf("n=%d mask=%b: result %v", n, mask, xs)
				}
			}
		}
	}
}

func TestMergeZeroOnePrinciple(t *testing.T) {
	// All bitonic 0-1 sequences of length 8: 0^a 1^b 0^c and 1^a 0^b 1^c.
	const n = 8
	for a := 0; a <= n; a++ {
		for b := 0; a+b <= n; b++ {
			c := n - a - b
			for _, inv := range []bool{false, true} {
				xs := make([]int64, 0, n)
				v0, v1 := int64(0), int64(1)
				if inv {
					v0, v1 = 1, 0
				}
				for i := 0; i < a; i++ {
					xs = append(xs, v0)
				}
				for i := 0; i < b; i++ {
					xs = append(xs, v1)
				}
				for i := 0; i < c; i++ {
					xs = append(xs, v0)
				}
				if !IsBitonic(xs) {
					continue
				}
				if _, err := Merge(xs, true); err != nil {
					t.Fatal(err)
				}
				if !IsSorted(xs, true) {
					t.Fatalf("a=%d b=%d inv=%v: %v", a, b, inv, xs)
				}
			}
		}
	}
}

func TestSortIsPermutationProperty(t *testing.T) {
	f := func(raw []int16) bool {
		n := 1
		for n*2 <= len(raw) && n < 64 {
			n *= 2
		}
		xs := make([]int64, n)
		counts := map[int64]int{}
		for i := 0; i < n && i < len(raw); i++ {
			xs[i] = int64(raw[i])
		}
		for _, x := range xs {
			counts[x]++
		}
		if _, err := Sort(xs, true); err != nil {
			return false
		}
		for _, x := range xs {
			counts[x]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return IsSorted(xs, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMergeSplit(t *testing.T) {
	a := []int64{1, 5, 9}
	b := []int64{2, 3, 10}
	lo, hi, c, err := MergeSplit(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantLo, wantHi := []int64{1, 2, 3}, []int64{5, 9, 10}
	for i := range wantLo {
		if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
			t.Fatalf("lo=%v hi=%v", lo, hi)
		}
	}
	if c == 0 {
		t.Error("zero comparisons reported")
	}
	if _, _, _, err := MergeSplit([]int64{1}, []int64{1, 2}); err == nil {
		t.Error("mismatched block lengths: want error")
	}
}

func TestMergeSplitProperty(t *testing.T) {
	f := func(av, bv []int16) bool {
		m := len(av)
		if len(bv) < m {
			m = len(bv)
		}
		if m == 0 {
			return true
		}
		a := make([]int64, m)
		b := make([]int64, m)
		for i := 0; i < m; i++ {
			a[i], b[i] = int64(av[i]), int64(bv[i])
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		lo, hi, _, err := MergeSplit(a, b)
		if err != nil {
			return false
		}
		if !IsSorted(lo, true) || !IsSorted(hi, true) {
			return false
		}
		// Every element of lo <= every element of hi.
		return len(lo) == m && len(hi) == m && lo[m-1] <= hi[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeSortCount(t *testing.T) {
	xs := []int64{5, 1, 4, 1, 9, 0}
	sorted, c := MergeSortCount(xs)
	if !IsSorted(sorted, true) {
		t.Fatalf("sorted = %v", sorted)
	}
	if xs[0] != 5 {
		t.Error("input mutated")
	}
	if c <= 0 {
		t.Error("no comparisons counted")
	}
	if _, c := MergeSortCount(nil); c != 0 {
		t.Error("empty sort counted comparisons")
	}
	if out, c := MergeSortCount([]int64{7}); c != 0 || out[0] != 7 {
		t.Error("singleton sort wrong")
	}
}

// The charged host-sort compute is the merge sort's comparison count,
// so it must stay within the N·lgN envelope the paper's sequential
// cost formula assumes.
func TestMergeSortCountStaysNlogN(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{16, 256, 4096} {
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63()
		}
		_, c := MergeSortCount(xs)
		bound := int(float64(n) * math.Log2(float64(n)))
		if c > bound {
			t.Errorf("n=%d: %d compares > N·lgN bound %d", n, c, bound)
		}
		if c < bound/4 {
			t.Errorf("n=%d: %d compares suspiciously low (bound %d)", n, c, bound)
		}
	}
}

func TestMergeSortCountMatchesSortProperty(t *testing.T) {
	f := func(raw []int16) bool {
		xs := make([]int64, len(raw))
		for i, v := range raw {
			xs[i] = int64(v)
		}
		got, _ := MergeSortCount(xs)
		want := append([]int64{}, xs...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return len(got) == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestReverse(t *testing.T) {
	xs := []int64{1, 2, 3, 4}
	Reverse(xs)
	want := []int64{4, 3, 2, 1}
	for i := range want {
		if xs[i] != want[i] {
			t.Fatalf("Reverse = %v", xs)
		}
	}
	odd := []int64{1, 2, 3}
	Reverse(odd)
	if odd[0] != 3 || odd[1] != 2 || odd[2] != 1 {
		t.Fatalf("Reverse odd = %v", odd)
	}
	Reverse(nil) // must not panic
}

func TestMinMax(t *testing.T) {
	min, max, err := MinMax([]int64{3, -1, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if min != -1 || max != 7 {
		t.Errorf("MinMax = %d,%d", min, max)
	}
	if _, _, err := MinMax(nil); err == nil {
		t.Error("empty MinMax: want error")
	}
}

func TestMergeSplitFuncIntoHonest(t *testing.T) {
	// With the honest comparator (or nil) the pluggable merge must be
	// indistinguishable from MergeSplitInto, comparison count included.
	f := func(av, bv []int16) bool {
		m := len(av)
		if len(bv) < m {
			m = len(bv)
		}
		if m == 0 {
			return true
		}
		a := make([]int64, m)
		b := make([]int64, m)
		for i := 0; i < m; i++ {
			a[i], b[i] = int64(av[i]), int64(bv[i])
		}
		sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		wantLo, wantHi, wantC, err := MergeSplitInto(nil, a, b)
		if err != nil {
			return false
		}
		for _, leq := range []Comparator{Leq, nil} {
			lo, hi, c, err := MergeSplitFuncInto(nil, a, b, leq)
			if err != nil || c != wantC {
				return false
			}
			for i := 0; i < m; i++ {
				if lo[i] != wantLo[i] || hi[i] != wantHi[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMergeSplitFuncIntoLyingComparator(t *testing.T) {
	// An inverted comparator misroutes keys but still emits a
	// permutation of the inputs — the property that makes comparison
	// faults invisible to everything except order-sensitive predicates.
	a := []int64{1, 5, 9}
	b := []int64{2, 3, 10}
	lo, hi, c, err := MergeSplitFuncInto(nil, a, b, func(x, y int64) bool { return x > y })
	if err != nil {
		t.Fatal(err)
	}
	if c == 0 {
		t.Error("zero comparisons reported")
	}
	got := append(append([]int64{}, lo...), hi...)
	want := append(append([]int64{}, a...), b...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge with lying comparator lost keys: lo=%v hi=%v", lo, hi)
		}
	}
	// The inverted merge must differ from the honest one somewhere.
	honestLo, _, _, err := MergeSplitInto(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range honestLo {
		if lo[i] != honestLo[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("inverted comparator produced the honest split: lo=%v", lo)
	}
	if _, _, _, err := MergeSplitFuncInto(nil, []int64{1}, []int64{1, 2}, Leq); err == nil {
		t.Error("mismatched block lengths: want error")
	}
}

func TestMergeSplitFuncIntoReusesScratch(t *testing.T) {
	a := []int64{1, 3}
	b := []int64{2, 4}
	scratch := make([]int64, 0, 4)
	lo, _, _, err := MergeSplitFuncInto(scratch, a, b, Leq)
	if err != nil {
		t.Fatal(err)
	}
	if &lo[0] != &scratch[:1][0] {
		t.Error("merge did not reuse the caller's scratch")
	}
}
