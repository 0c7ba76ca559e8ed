package reliablesort

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/core"
)

func TestSortBasic(t *testing.T) {
	tests := []struct {
		name string
		in   []int64
		opts Options
	}{
		{"empty", nil, Options{}},
		{"single", []int64{5}, Options{}},
		{"power of two", []int64{4, 1, 3, 2}, Options{}},
		{"odd count pads", []int64{9, 7, 8, 2, 5}, Options{}},
		{"duplicates", []int64{3, 3, 3, 1, 1}, Options{}},
		{"negative keys", []int64{-5, 7, -1, 0}, Options{}},
		{"descending", []int64{1, 9, 4, 6, 2}, Options{Descending: true}},
		{"forced dim", []int64{5, 4, 3, 2, 1}, Options{Dim: 3}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			out, stats, err := Sort(tc.in, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(tc.in) {
				t.Fatalf("len(out) = %d, want %d", len(out), len(tc.in))
			}
			want := append([]int64{}, tc.in...)
			sort.Slice(want, func(i, j int) bool {
				if tc.opts.Descending {
					return want[i] > want[j]
				}
				return want[i] < want[j]
			})
			for i := range want {
				if out[i] != want[i] {
					t.Fatalf("out = %v, want %v", out, want)
				}
			}
			if len(tc.in) > 0 && stats.Nodes == 0 {
				t.Error("stats not populated")
			}
			if len(tc.in) > 0 && stats.Nodes*stats.BlockLen != len(tc.in)+stats.Padded {
				t.Errorf("geometry inconsistent: %+v for %d keys", stats, len(tc.in))
			}
		})
	}
}

func TestSortRejectsSentinelKeys(t *testing.T) {
	if _, _, err := Sort([]int64{1, math.MaxInt64}, Options{}); err == nil {
		t.Error("MaxInt64 key ascending: want error")
	}
	if _, _, err := Sort([]int64{1, math.MinInt64}, Options{Descending: true}); err == nil {
		t.Error("MinInt64 key descending: want error")
	}
	// The mirror cases are fine.
	if _, _, err := Sort([]int64{1, math.MinInt64}, Options{}); err != nil {
		t.Errorf("MinInt64 ascending should sort: %v", err)
	}
	if _, _, err := Sort([]int64{1, math.MaxInt64}, Options{Descending: true}); err != nil {
		t.Errorf("MaxInt64 descending should sort: %v", err)
	}
}

func TestSortRejectsBadDim(t *testing.T) {
	if _, _, err := Sort([]int64{1, 2}, Options{Dim: 99}); err == nil {
		t.Error("dim 99: want error")
	}
}

func TestAutoDim(t *testing.T) {
	tests := []struct{ keys, want int }{
		{1, 0},
		{3, 0},
		{4, 2},
		{512, 2},
		{513 * 4, 3},
		{1 << 20, MaxAutoDim},
	}
	for _, tc := range tests {
		if got := AutoDim(tc.keys); got != tc.want {
			t.Errorf("AutoDim(%d) = %d, want %d", tc.keys, got, tc.want)
		}
	}
}

func TestSortMatchesStdlibProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	f := func(raw []int16, desc bool) bool {
		in := make([]int64, len(raw))
		for i, v := range raw {
			in[i] = int64(v)
		}
		out, _, err := Sort(in, Options{Descending: desc})
		if err != nil {
			return false
		}
		want := append([]int64{}, in...)
		sort.Slice(want, func(i, j int) bool {
			if desc {
				return want[i] > want[j]
			}
			return want[i] < want[j]
		})
		if len(out) != len(want) {
			return false
		}
		for i := range want {
			if out[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestFaultErrorWrapping(t *testing.T) {
	fe := &FaultError{NodeErr: errors.New("x")}
	if !errors.Is(fe, ErrFaultDetected) {
		t.Error("FaultError does not unwrap to ErrFaultDetected")
	}
	if fe.Error() == "" {
		t.Error("empty error text")
	}
	fe2 := &FaultError{HostErrors: []core.HostError{{
		Node: 3, Stage: 1, Predicate: "consistency", Detail: "copies differ",
	}}}
	msg := fe2.Error()
	for _, want := range []string{"node 3", "consistency", "copies differ"} {
		if !strings.Contains(msg, want) {
			t.Errorf("Error() = %q missing %q", msg, want)
		}
	}
}

func TestStatsReportPadding(t *testing.T) {
	_, stats, err := Sort([]int64{3, 1, 2}, Options{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Nodes != 4 || stats.BlockLen != 1 || stats.Padded != 1 {
		t.Errorf("stats = %+v", stats)
	}
	if stats.Makespan <= 0 || stats.Msgs <= 0 || stats.Bytes <= 0 {
		t.Errorf("cost stats missing: %+v", stats)
	}
}
