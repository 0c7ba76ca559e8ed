package checker

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestIsPermutation(t *testing.T) {
	tests := []struct {
		name string
		a, b []int64
		want bool
	}{
		{"both empty", nil, nil, true},
		{"equal", []int64{1, 2, 3}, []int64{3, 1, 2}, true},
		{"duplicates match", []int64{2, 2, 1}, []int64{1, 2, 2}, true},
		{"duplicates differ", []int64{2, 2, 1}, []int64{1, 1, 2}, false},
		{"different lengths", []int64{1}, []int64{1, 1}, false},
		{"value swapped", []int64{1, 2}, []int64{1, 3}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := IsPermutation(tc.a, tc.b); got != tc.want {
				t.Errorf("IsPermutation(%v,%v) = %v, want %v", tc.a, tc.b, got, tc.want)
			}
		})
	}
}

func TestVerifySorted(t *testing.T) {
	if err := VerifySorted([]int64{1, 2, 2, 9}, true); err != nil {
		t.Errorf("sorted asc: %v", err)
	}
	if err := VerifySorted([]int64{9, 2, 2, 1}, false); err != nil {
		t.Errorf("sorted desc: %v", err)
	}
	err := VerifySorted([]int64{1, 3, 2}, true)
	if !errors.Is(err, ErrNotSorted) {
		t.Errorf("want ErrNotSorted, got %v", err)
	}
	if err := VerifySorted([]int64{1, 2, 3}, false); !errors.Is(err, ErrNotSorted) {
		t.Error("ascending run must fail descending check")
	}
	if err := VerifySorted(nil, true); err != nil {
		t.Errorf("empty: %v", err)
	}
}

func TestVerify(t *testing.T) {
	in := []int64{5, 1, 4, 1}
	if err := Verify(in, []int64{1, 1, 4, 5}, true); err != nil {
		t.Errorf("correct sort rejected: %v", err)
	}
	if err := Verify(in, []int64{1, 4, 5}, true); !errors.Is(err, ErrNotPermutation) {
		t.Errorf("short output: want ErrNotPermutation, got %v", err)
	}
	if err := Verify(in, []int64{1, 1, 4, 6}, true); !errors.Is(err, ErrNotPermutation) {
		t.Errorf("value substitution: want ErrNotPermutation, got %v", err)
	}
	if err := Verify(in, []int64{1, 4, 1, 5}, true); !errors.Is(err, ErrNotSorted) {
		t.Errorf("unsorted permutation: want ErrNotSorted, got %v", err)
	}
}

// The two Theorem 1 failure modes the paper names: output not a
// permutation (part 1) and an out-of-order adjacent pair (part 2).
func TestVerifyCatchesSingleCorruptionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(raw []int16, pick uint8, delta int16) bool {
		if len(raw) == 0 || delta == 0 {
			return true
		}
		in := make([]int64, len(raw))
		for i, v := range raw {
			in[i] = int64(v)
		}
		out := append([]int64{}, in...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		// Corrupt one element the way a faulty processor would.
		i := int(pick) % len(out)
		out[i] += int64(delta)
		if IsPermutation(in, out) {
			// The corruption happened to produce another value already
			// present with compensation — impossible with one change.
			return false
		}
		return Verify(in, out, true) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestVerifyAcceptsAllSortedProperty(t *testing.T) {
	f := func(raw []int16) bool {
		in := make([]int64, len(raw))
		for i, v := range raw {
			in[i] = int64(v)
		}
		out := append([]int64{}, in...)
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return Verify(in, out, true) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVerifyCost(t *testing.T) {
	tests := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 2}, {8, 24}, {1024, 10240},
	}
	for _, tc := range tests {
		if got := VerifyCost(tc.n); got != tc.want {
			t.Errorf("VerifyCost(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}

// mapIsPermutation and mapVerify are the checker as it was before it
// compared sorted copies: a count map over in, decremented by out. They
// are kept as the reference TestVerifyMatchesMapReferenceProperty holds
// the sorting checker to.
func mapIsPermutation(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	counts := make(map[int64]int, len(a))
	for _, x := range a {
		counts[x]++
	}
	for _, x := range b {
		counts[x]--
		if counts[x] < 0 {
			return false
		}
	}
	return true
}

func mapVerify(in, out []int64, ascending bool) error {
	if len(in) != len(out) {
		return fmt.Errorf("length %d in vs %d out: %w", len(in), len(out), ErrNotPermutation)
	}
	if !mapIsPermutation(in, out) {
		return ErrNotPermutation
	}
	return VerifySorted(out, ascending)
}

// TestVerifyMatchesMapReferenceProperty: on every input, correct sorts
// in either direction, unsorted permutations, corrupted, truncated and
// duplicate-heavy outputs alike, Verify and IsPermutation return what
// the count-map checker returned: the same verdict and the same error
// value and text.
func TestVerifyMatchesMapReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1989))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(40)
		span := int64(1 + rng.Intn(2*n+2)) // small spans force duplicates
		in := make([]int64, n)
		for i := range in {
			in[i] = rng.Int63n(span) - span/2
		}
		ascending := rng.Intn(2) == 0
		out := slices.Clone(in)
		slices.Sort(out)
		if !ascending {
			slices.Reverse(out)
		}
		switch rng.Intn(6) {
		case 1: // swap two entries
			if n > 1 {
				i, j := rng.Intn(n), rng.Intn(n)
				out[i], out[j] = out[j], out[i]
			}
		case 2: // change one value
			if n > 0 {
				out[rng.Intn(n)] += rng.Int63n(3) - 1
			}
		case 3: // shuffle
			rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
		case 4: // drop or duplicate one entry
			if n > 0 && rng.Intn(2) == 0 {
				out = out[1:]
			} else if n > 0 {
				out = append(out, out[0])
			}
		case 5: // replace one value, then re-sort
			if n > 0 {
				out[rng.Intn(n)] = rng.Int63n(span) - span/2
				slices.Sort(out)
				if !ascending {
					slices.Reverse(out)
				}
			}
		}
		got, want := Verify(in, out, ascending), mapVerify(in, out, ascending)
		if fmt.Sprint(got) != fmt.Sprint(want) || errors.Is(got, ErrNotPermutation) != errors.Is(want, ErrNotPermutation) ||
			errors.Is(got, ErrNotSorted) != errors.Is(want, ErrNotSorted) {
			t.Fatalf("Verify(%v, %v, %v) = %v, map reference %v", in, out, ascending, got, want)
		}
		if IsPermutation(in, out) != mapIsPermutation(in, out) {
			t.Fatalf("IsPermutation(%v, %v) = %v, map reference disagrees", in, out, !mapIsPermutation(in, out))
		}
	}
}

// TestVerifyZeroAllocs: once its scratch is warm, a passing check
// allocates nothing.
func TestVerifyZeroAllocs(t *testing.T) {
	in := make([]int64, 1024)
	for i := range in {
		in[i] = int64((i * 7919) % 1024)
	}
	out := slices.Clone(in)
	slices.Sort(out)
	check := func() {
		if err := Verify(in, out, true); err != nil {
			t.Fatal(err)
		}
	}
	check()
	if n := testing.AllocsPerRun(100, check); n != 0 {
		t.Errorf("Verify: %v allocs/op, want 0", n)
	}
}
