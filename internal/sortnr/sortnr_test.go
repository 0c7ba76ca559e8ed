package sortnr

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/checker"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/wire"
)

func newNet(t testing.TB, dim int) *simnet.Network {
	t.Helper()
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestSortsPaperExample(t *testing.T) {
	// Figure 5's input list on the 8-node cube.
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	nw := newNet(t, 3)
	out, res, err := Run(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AnyErr(); err != nil {
		t.Fatal(err)
	}
	want := []int64{2, 3, 4, 5, 7, 8, 9, 10}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}

func TestSortsAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for dim := 0; dim <= 5; dim++ {
		n := 1 << uint(dim)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(1000) - 500)
		}
		nw := newNet(t, dim)
		out, res, err := Run(nw, keys)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if err := res.AnyErr(); err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if err := checker.Verify(keys, out, true); err != nil {
			t.Fatalf("dim %d: %v (out=%v)", dim, err, out)
		}
	}
}

func TestSortsWithDuplicates(t *testing.T) {
	keys := []int64{5, 5, 1, 5, 1, 1, 5, 1}
	nw := newNet(t, 3)
	out, res, err := Run(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AnyErr(); err != nil {
		t.Fatal(err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		t.Fatalf("%v (out=%v)", err, out)
	}
}

func TestSortRandomProperty(t *testing.T) {
	f := func(raw [16]int32) bool {
		keys := make([]int64, 16)
		for i, v := range raw {
			keys[i] = int64(v)
		}
		nw := newNet(t, 4)
		out, res, err := Run(nw, keys)
		if err != nil || res.AnyErr() != nil {
			return false
		}
		return checker.Verify(keys, out, true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestRunValidatesKeyCount(t *testing.T) {
	nw := newNet(t, 2)
	if _, _, err := Run(nw, []int64{1, 2}); err == nil {
		t.Error("2 keys for 4 nodes: want error")
	}
	if _, _, err := RunBlocks(nw, make([]int64, 7), 2); err == nil {
		t.Error("7 keys for 4 blocks of 2: want error")
	}
	if _, _, err := RunBlocks(nw, nil, 0); err == nil {
		t.Error("empty blocks: want error")
	}
}

func TestRunNRSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ dim, m int }{
		{0, 4}, {1, 1}, {1, 4}, {2, 3}, {3, 8}, {4, 5},
	} {
		keys := make([]int64, (1<<uint(tc.dim))*tc.m)
		for i := range keys {
			keys[i] = int64(rng.Intn(200) - 100)
		}
		out, res, err := RunBlocks(newNet(t, tc.dim), keys, tc.m)
		if err != nil {
			t.Fatalf("dim=%d m=%d: %v", tc.dim, tc.m, err)
		}
		if err := res.AnyErr(); err != nil {
			t.Fatalf("dim=%d m=%d: %v", tc.dim, tc.m, err)
		}
		if err := checker.Verify(keys, out, true); err != nil {
			t.Fatalf("dim=%d m=%d: %v", tc.dim, tc.m, err)
		}
	}
}

func TestMessageCountMatchesSchedule(t *testing.T) {
	// Each of the n(n+1)/2 parallel steps sends exactly N messages
	// (one from each node: the passive key and the active reply).
	dim := 4
	n := 1 << uint(dim)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(n - i)
	}
	nw := newNet(t, dim)
	_, res, err := Run(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	steps := dim * (dim + 1) / 2
	want := int64(n * steps)
	if got := res.Metrics.MsgsByKind[wire.KindExchange]; got != want {
		t.Errorf("exchange messages = %d, want %d", got, want)
	}
}

// A Byzantine lie in S_NR corrupts the result with no error signal —
// the contrast that motivates S_FT.
func TestByzantineCorruptsSilently(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	out := make([]int64, n)
	progs := make([]node.Program, n)
	for id := 0; id < n; id++ {
		opts := Options{}
		if id == 5 {
			opts.Tamper = func(m *wire.Message) *wire.Message {
				// Lie after the first exchange (env. assumption 5).
				if m.Stage == 0 && m.Iter == 0 {
					return m
				}
				p, err := wire.DecodeExchange(m.Payload)
				if err != nil || len(p.Keys) == 0 {
					return m
				}
				p.Keys[0] = 999 // substitute a bogus value
				m.Payload = wire.EncodeExchange(p)
				return m
			}
		}
		progs[id] = NodeProgram(keys[id], &out[id], opts)
	}
	nw := newNet(t, dim)
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No node reports an error...
	if err := res.AnyErr(); err != nil {
		t.Fatalf("S_NR unexpectedly detected the fault: %v", err)
	}
	// ...yet the output is wrong.
	if checker.Verify(keys, out, true) == nil {
		t.Fatalf("expected corrupted output, got a correct sort: %v", out)
	}
}

func TestByzantineSilenceIsAbsence(t *testing.T) {
	dim := 2
	n := 1 << uint(dim)
	keys := []int64{4, 3, 2, 1}
	out := make([]int64, n)
	progs := make([]node.Program, n)
	for id := 0; id < n; id++ {
		opts := Options{}
		if id == 1 {
			opts.Tamper = func(m *wire.Message) *wire.Message {
				if m.Stage >= 1 {
					return nil // go silent from stage 1 on
				}
				return m
			}
		}
		progs[id] = NodeProgram(keys[id], &out[id], opts)
	}
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 50 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	res, err := node.RunPer(nw, progs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.FirstNodeErr() == nil {
		t.Fatal("silence went unnoticed; expected ErrAbsent somewhere")
	}
}

func TestVirtualTimeGrowsWithDim(t *testing.T) {
	prev := simnet.Ticks(0)
	for dim := 1; dim <= 4; dim++ {
		n := 1 << uint(dim)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(n - i)
		}
		nw := newNet(t, dim)
		_, res, err := Run(nw, keys)
		if err != nil {
			t.Fatal(err)
		}
		if res.Makespan() <= prev {
			t.Fatalf("dim %d makespan %d not greater than dim %d's %d", dim, res.Makespan(), dim-1, prev)
		}
		prev = res.Makespan()
	}
}

func sortedCopy(xs []int64) []int64 {
	out := append([]int64{}, xs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func TestOutputIsSortedCopy(t *testing.T) {
	keys := []int64{7, -2, 7, 0}
	nw := newNet(t, 2)
	out, _, err := Run(nw, keys)
	if err != nil {
		t.Fatal(err)
	}
	want := sortedCopy(keys)
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v, want %v", out, want)
		}
	}
}
