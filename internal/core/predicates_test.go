package core

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestProgressStageShape(t *testing.T) {
	tests := []struct {
		name    string
		seq     []int64
		wantErr bool
	}{
		{"canonical bitonic", []int64{1, 3, 5, 9, 8, 6, 4, 2}, false},
		{"flat", []int64{2, 2, 2, 2}, false},
		{"pair", []int64{5, 1}, false}, // halves of length 1
		{"lower half broken", []int64{3, 1, 9, 8}, true},
		{"upper half broken", []int64{1, 3, 4, 9}, true},
		{"odd length", []int64{1, 2, 3}, true},
		{"empty", nil, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := Progress(tc.seq, false)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Progress(%v) err = %v, wantErr %v", tc.seq, err, tc.wantErr)
			}
			if err != nil && !errors.Is(err, ErrProgress) {
				t.Fatalf("error %v does not wrap ErrProgress", err)
			}
		})
	}
}

func TestProgressFinal(t *testing.T) {
	if err := Progress([]int64{1, 2, 2, 9}, true); err != nil {
		t.Errorf("sorted final rejected: %v", err)
	}
	if err := Progress([]int64{1, 9, 2}, true); !errors.Is(err, ErrProgress) {
		t.Errorf("unsorted final: want ErrProgress, got %v", err)
	}
}

func TestFeasibility(t *testing.T) {
	tests := []struct {
		name      string
		prev, cur []int64
		wantErr   bool
	}{
		{"identical", []int64{1, 2}, []int64{1, 2}, false},
		{"permuted", []int64{1, 2, 3}, []int64{3, 1, 2}, false},
		{"duplicates ok", []int64{5, 5, 1}, []int64{1, 5, 5}, false},
		{"value substituted", []int64{1, 2}, []int64{1, 3}, true},
		{"value duplicated", []int64{1, 2}, []int64{1, 1}, true},
		{"length mismatch", []int64{1, 2}, []int64{1}, true},
		{"both empty", nil, nil, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := Feasibility(tc.prev, tc.cur)
			if (err != nil) != tc.wantErr {
				t.Fatalf("Feasibility(%v,%v) err = %v, wantErr %v", tc.prev, tc.cur, err, tc.wantErr)
			}
			if err != nil && !errors.Is(err, ErrFeasibility) {
				t.Fatalf("error %v does not wrap ErrFeasibility", err)
			}
		})
	}
}

func TestFeasibilityDetectsAnySingleSubstitutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := func(raw []int16, pick uint8, delta int16) bool {
		if len(raw) == 0 || delta == 0 {
			return true
		}
		prev := make([]int64, len(raw))
		for i, v := range raw {
			prev[i] = int64(v)
		}
		cur := append([]int64{}, prev...)
		rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		cur[int(pick)%len(cur)] += int64(delta)
		return Feasibility(prev, cur) != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFeasibilityAcceptsPermutationsProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(raw []int16) bool {
		prev := make([]int64, len(raw))
		for i, v := range raw {
			prev[i] = int64(v)
		}
		cur := append([]int64{}, prev...)
		rng.Shuffle(len(cur), func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		return Feasibility(prev, cur) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFeasibilityTwoPointer(t *testing.T) {
	tests := []struct {
		name      string
		prev, cur []int64
		wantErr   bool
	}{
		{"canonical", []int64{1, 5, 9, 7}, []int64{1, 5, 7, 9}, false},
		{"all ascending run", []int64{1, 2, 3, 4}, []int64{1, 2, 3, 4}, false},
		{"all descending run", []int64{4, 3, 2, 1}, []int64{1, 2, 3, 4}, false},
		{"duplicates", []int64{2, 2, 5, 2}, []int64{2, 2, 2, 5}, false},
		{"substituted", []int64{1, 5, 9, 7}, []int64{1, 5, 7, 8}, true},
		{"length mismatch", []int64{1, 2}, []int64{1}, true},
		{"both empty", nil, nil, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := FeasibilityTwoPointer(tc.prev, tc.cur)
			if (err != nil) != tc.wantErr {
				t.Fatalf("err = %v, wantErr %v", err, tc.wantErr)
			}
			if err != nil && !errors.Is(err, ErrFeasibility) {
				t.Fatalf("error %v does not wrap ErrFeasibility", err)
			}
		})
	}
}

// Under the stage-boundary preconditions (prev bitonic up-down, cur
// fully sorted) the paper's two-pointer Φ_F and the multiset Φ_F agree
// on accept and on reject.
func TestFeasibilityVariantsAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	f := func(raw []int16, split uint8, corrupt bool, pick uint8, delta int16) bool {
		if len(raw) == 0 {
			return true
		}
		vals := make([]int64, len(raw))
		for i, v := range raw {
			vals[i] = int64(v)
		}
		cur := append([]int64{}, vals...)
		sort.Slice(cur, func(i, j int) bool { return cur[i] < cur[j] })
		// prev: ascending run then descending run over the same multiset.
		k := int(split) % (len(vals) + 1)
		prev := append([]int64{}, cur...)
		rng.Shuffle(len(prev), func(i, j int) { prev[i], prev[j] = prev[j], prev[i] })
		asc := append([]int64{}, prev[:k]...)
		desc := append([]int64{}, prev[k:]...)
		sort.Slice(asc, func(i, j int) bool { return asc[i] < asc[j] })
		sort.Slice(desc, func(i, j int) bool { return desc[i] > desc[j] })
		prev = append(asc, desc...)
		if corrupt && delta != 0 {
			cur[int(pick)%len(cur)] += int64(delta)
			sort.Slice(cur, func(i, j int) bool { return cur[i] < cur[j] })
		}
		a := Feasibility(prev, cur) == nil
		b := FeasibilityTwoPointer(prev, cur) == nil
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPredicateErrorFormatting(t *testing.T) {
	pe := &PredicateError{Node: 3, Stage: 2, Iter: 1, Kind: ErrConsistency, Detail: "copies differ"}
	if !errors.Is(pe, ErrConsistency) {
		t.Error("PredicateError does not unwrap to its kind")
	}
	msg := pe.Error()
	for _, want := range []string{"node 3", "stage 2", "iter 1", "copies differ"} {
		if !contains(msg, want) {
			t.Errorf("Error() = %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || index(s, sub) >= 0)
}

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestPredicateName(t *testing.T) {
	tests := []struct {
		kind error
		want string
	}{
		{ErrProgress, "progress"},
		{ErrFeasibility, "feasibility"},
		{ErrConsistency, "consistency"},
		{ErrProtocol, "protocol"},
		{errors.New("other"), "protocol"},
	}
	for _, tc := range tests {
		if got := PredicateName(tc.kind); got != tc.want {
			t.Errorf("PredicateName(%v) = %q, want %q", tc.kind, got, tc.want)
		}
	}
}

// A full bitonic schedule simulated sequentially: at the end of each
// stage the assembled previous-stage output must satisfy Progress.
// This pins the predicate to the actual algorithm behaviour it asserts.
func TestProgressHoldsAlongHonestSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const dim = 4
	n := 1 << dim
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(rng.Intn(50))
	}
	for s := 0; s < dim; s++ {
		stageStart := append([]int64{}, vals...)
		// Run stage s of the schedule sequentially.
		for j := s; j >= 0; j-- {
			d := 1 << uint(j)
			for id := 0; id < n; id++ {
				if id&d != 0 {
					continue
				}
				p := id | d
				asc := id&(1<<uint(s+1)) == 0 || s == dim-1
				lo, hi := vals[id], vals[p]
				if lo > hi {
					lo, hi = hi, lo
				}
				if asc {
					vals[id], vals[p] = lo, hi
				} else {
					vals[id], vals[p] = hi, lo
				}
			}
		}
		// stageStart holds stage-(s-1) output: at end of stage s each
		// SC_{s+1} of it must pass Progress (for s >= 1).
		if s >= 1 {
			size := 1 << uint(s+1)
			for base := 0; base < n; base += size {
				if err := Progress(stageStart[base:base+size], false); err != nil {
					t.Fatalf("stage %d subcube at %d: %v (%v)", s, base, err, stageStart[base:base+size])
				}
			}
		}
	}
	sorted := append([]int64{}, vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i := range vals {
		if vals[i] != sorted[i] {
			t.Fatalf("schedule simulation did not sort: %v", vals)
		}
	}
	if err := Progress(vals, true); err != nil {
		t.Fatalf("final Progress: %v", err)
	}
}
