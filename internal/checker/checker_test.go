package checker

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
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

// keyKinds draw the property test's keys, given the input's length.
var keyKinds = []func(rng *rand.Rand, n int) func() int64{
	// Narrow spans: duplicates everywhere, one or two radix digits.
	func(rng *rand.Rand, n int) func() int64 {
		span := int64(1 + rng.Intn(2*n+2))
		return func() int64 { return rng.Int63n(span) - span/2 }
	},
	// The service benchmark's ±500,000: three digits.
	func(rng *rand.Rand, n int) func() int64 {
		return func() int64 { return rng.Int63n(1_000_001) - 500_000 }
	},
	// Full 64-bit keys: eight digits.
	func(rng *rand.Rand, n int) func() int64 {
		return func() int64 { return int64(rng.Uint64()) }
	},
	// The extremes, math.MinInt64 and the padding sentinel
	// math.MaxInt64 among them.
	func(rng *rand.Rand, n int) func() int64 {
		vals := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		return func() int64 { return vals[rng.Intn(len(vals))] }
	},
	// One middle byte of every key's offset from the minimum (lo)
	// constant, so one radix pass moves no key.
	func(rng *rand.Rand, n int) func() int64 {
		lo := -int64(rng.Uint64() >> 2)
		mask := uint64(math.MaxInt64) &^ (0xff << (8 * uint(1+rng.Intn(6))))
		return func() int64 {
			if rng.Intn(8) == 0 {
				return lo
			}
			return lo + int64(rng.Uint64()&mask)
		}
	},
}

// corrupt applies one of the property test's six output edits, op, to
// out (in's sorted order in the given direction); key draws a
// replacement value.
func corrupt(rng *rand.Rand, out []int64, op int, ascending bool, key func() int64) []int64 {
	n := len(out)
	switch op {
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
			out[rng.Intn(n)] = key()
			slices.Sort(out)
			if !ascending {
				slices.Reverse(out)
			}
		}
	}
	return out
}

// matchesMap fails t unless verify and isPermutation at the given
// cutoff return what the count-map checker returns on (in, out): the
// same verdict and the same error value and text.
func matchesMap(t *testing.T, in, out []int64, ascending bool, cutoff int) {
	t.Helper()
	got, want := verify(in, out, ascending, cutoff), mapVerify(in, out, ascending)
	if fmt.Sprint(got) != fmt.Sprint(want) || errors.Is(got, ErrNotPermutation) != errors.Is(want, ErrNotPermutation) ||
		errors.Is(got, ErrNotSorted) != errors.Is(want, ErrNotSorted) {
		t.Fatalf("cutoff %d: Verify(%v, %v, %v) = %v, map reference %v", cutoff, in, out, ascending, got, want)
	}
	if isPermutation(in, out, cutoff) != mapIsPermutation(in, out) {
		t.Fatalf("cutoff %d: IsPermutation(%v, %v) = %v, map reference disagrees", cutoff, in, out, !mapIsPermutation(in, out))
	}
}

// TestVerifyMatchesMapReferenceProperty: on every input, correct sorts
// in either direction, unsorted permutations, corrupted, truncated and
// duplicate-heavy outputs alike, Verify and IsPermutation return what
// the count-map checker returned: the same verdict and the same error
// value and text. A quarter of the inputs have lengths either side of
// radixCutoff, some padded with math.MaxInt64 sentinels as a service
// job is; every input is also checked with the radix path forced.
func TestVerifyMatchesMapReferenceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1989))
	for trial := 0; trial < 4000; trial++ {
		n := rng.Intn(40)
		if trial%4 == 0 {
			n = radixCutoff/2 + rng.Intn(radixCutoff)
		}
		key := keyKinds[rng.Intn(len(keyKinds))](rng, n)
		in := make([]int64, n)
		for i := range in {
			in[i] = key()
		}
		if rng.Intn(4) == 0 {
			for i := n - rng.Intn(n/8+1); i < n; i++ {
				in[i] = math.MaxInt64
			}
		}
		ascending := rng.Intn(2) == 0
		out := slices.Clone(in)
		slices.Sort(out)
		if !ascending {
			slices.Reverse(out)
		}
		out = corrupt(rng, out, rng.Intn(6), ascending, key)
		matchesMap(t, in, out, ascending, radixCutoff)
		matchesMap(t, in, out, ascending, 0)
	}
}

// FuzzVerify holds the radix path to the count-map checker. data
// decodes to keys of 1, 2, 4 or 8 bytes each (its first byte picks
// which), sign-extended, so narrow widths give narrow spans full of
// duplicates; out is their sorted order in the given direction, edited
// as corrupt's op with randomness from seed.
func FuzzVerify(f *testing.F) {
	le := func(vs ...int64) []byte {
		b := []byte{3}
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	f.Add(le(5, 1, 4, 1), true, uint8(0), int64(0))
	f.Add(le(math.MaxInt64, math.MinInt64, 0, -1, math.MaxInt64), false, uint8(5), int64(1))
	f.Add(le(1<<40, 1<<40+1, 1<<8, 0), true, uint8(1), int64(2))
	f.Add([]byte{0, 1, 2, 2, 0xff, 0x80, 0x7f, 1}, true, uint8(3), int64(3))
	f.Add([]byte{1, 0, 0x80, 0xff, 0x7f, 0, 0, 1, 0}, false, uint8(2), int64(4))
	f.Fuzz(func(t *testing.T, data []byte, ascending bool, op uint8, seed int64) {
		if len(data) == 0 {
			return
		}
		width := 1 << (data[0] % 4)
		var in []int64
		for b := data[1:]; len(b) >= width; b = b[width:] {
			var u uint64
			for i := width - 1; i >= 0; i-- {
				u = u<<8 | uint64(b[i])
			}
			shift := 64 - 8*uint(width)
			in = append(in, int64(u<<shift)>>shift)
		}
		out := slices.Clone(in)
		slices.Sort(out)
		if !ascending {
			slices.Reverse(out)
		}
		rng := rand.New(rand.NewSource(seed))
		key := func() int64 {
			if len(in) == 0 {
				return 0
			}
			return in[rng.Intn(len(in))] + rng.Int63n(3) - 1
		}
		out = corrupt(rng, out, int(op%6), ascending, key)
		matchesMap(t, in, out, ascending, 0)
	})
}

// TestVerifyZeroAllocs: once its scratch is warm, a passing check
// allocates nothing, on slices.Sort's path (64 keys) and on the radix
// path at a small and a large service job's 1,024 and 2^17 keys. Under
// -race sync.Pool drops a quarter of its Puts on purpose, and the
// check refills its scratch; a 2 MiB refill also sets off collections,
// which add allocations of their own, so collection stays off while
// the 2^17-key case is counted.
func TestVerifyZeroAllocs(t *testing.T) {
	for _, n := range []int{64, 1024, 1 << 17} {
		in := make([]int64, n)
		for i := range in {
			in[i] = int64((i * 7919) % n)
		}
		out := slices.Clone(in)
		slices.Sort(out)
		check := func() {
			if err := Verify(in, out, true); err != nil {
				t.Fatal(err)
			}
		}
		check()
		if n == 1<<17 { // the last case: collection stays off to the end
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
		}
		if a := testing.AllocsPerRun(100, check); a != 0 {
			t.Errorf("Verify, %d keys: %v allocs/op, want 0", n, a)
		}
	}
}

// BenchmarkVerify times a passing check on both of sortedCopy's paths,
// at the small service jobs' 16 to 1,024 keys, at 2,048 and at the
// large jobs' 2^15 and 2^17. span=bench draws keys from ±500,000 (the
// service benchmark's keys, three radix passes); span=full draws full
// 64-bit keys, which need all eight. Each length cycles through inputs
// totalling at least 2^16 keys, as a service checks fresh keys every
// job: a branch predictor learns the comparisons of one small input
// checked over and over, which flatters slices.Sort.
func BenchmarkVerify(b *testing.B) {
	spans := []struct {
		name string
		key  func(*rand.Rand) int64
	}{
		{"bench", func(r *rand.Rand) int64 { return r.Int63n(1_000_001) - 500_000 }},
		{"full", func(r *rand.Rand) int64 { return int64(r.Uint64()) }},
	}
	paths := []struct {
		name   string
		cutoff int
	}{{"pdqsort", math.MaxInt}, {"radix", 0}}
	for _, sp := range spans {
		for _, n := range []int{16, 64, 128, 256, 1024, 2048, 1 << 15, 1 << 17} {
			rng := rand.New(rand.NewSource(int64(n)))
			ins, outs := make([][]int64, max(1, 1<<16/n)), make([][]int64, max(1, 1<<16/n))
			for k := range ins {
				ins[k] = make([]int64, n)
				for i := range ins[k] {
					ins[k][i] = sp.key(rng)
				}
				outs[k] = slices.Clone(ins[k])
				slices.Sort(outs[k])
			}
			for _, p := range paths {
				b.Run(fmt.Sprintf("span=%s/n=%d/%s", sp.name, n, p.name), func(b *testing.B) {
					b.SetBytes(int64(8 * n))
					for i := 0; i < b.N; i++ {
						k := i % len(ins)
						if err := verify(ins[k], outs[k], true, p.cutoff); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
