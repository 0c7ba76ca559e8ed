package blocksort

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"repro/internal/bitonic"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/hypercube"
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

func newFaultNet(t testing.TB, dim int) *simnet.Network {
	t.Helper()
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 60 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func randomBlocks(rng *rand.Rand, n, m, span int) ([][]int64, []int64) {
	blocks := make([][]int64, n)
	var all []int64
	for i := range blocks {
		blocks[i] = make([]int64, m)
		for j := range blocks[i] {
			blocks[i][j] = int64(rng.Intn(span) - span/2)
		}
		all = append(all, blocks[i]...)
	}
	return blocks, all
}

func flatten(blocks [][]int64) []int64 {
	var out []int64
	for _, b := range blocks {
		out = append(out, b...)
	}
	return out
}

func TestRunNRSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, tc := range []struct{ dim, m int }{
		{0, 4}, {1, 1}, {1, 4}, {2, 3}, {3, 8}, {4, 5},
	} {
		blocks, all := randomBlocks(rng, 1<<uint(tc.dim), tc.m, 200)
		nw := newNet(t, tc.dim)
		out, res, err := RunNR(nw, blocks)
		if err != nil {
			t.Fatalf("dim=%d m=%d: %v", tc.dim, tc.m, err)
		}
		if err := res.AnyErr(); err != nil {
			t.Fatalf("dim=%d m=%d: %v", tc.dim, tc.m, err)
		}
		if err := checker.Verify(all, flatten(out), true); err != nil {
			t.Fatalf("dim=%d m=%d: %v", tc.dim, tc.m, err)
		}
	}
}

func TestRunFTSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct{ dim, m int }{
		{0, 4}, {1, 3}, {2, 4}, {3, 4}, {4, 2},
	} {
		blocks, all := randomBlocks(rng, 1<<uint(tc.dim), tc.m, 100)
		nw := newNet(t, tc.dim)
		oc, err := RunFT(nw, blocks)
		if err != nil {
			t.Fatalf("dim=%d m=%d: %v", tc.dim, tc.m, err)
		}
		if oc.Detected() {
			t.Fatalf("dim=%d m=%d: spurious detection: %v %v",
				tc.dim, tc.m, oc.Result.FirstNodeErr(), oc.HostErrors)
		}
		if err := checker.Verify(all, flatten(oc.SortedBlocks), true); err != nil {
			t.Fatalf("dim=%d m=%d: %v (out=%v)", tc.dim, tc.m, err, oc.SortedBlocks)
		}
	}
}

func TestRunFTDuplicateHeavy(t *testing.T) {
	blocks := [][]int64{{5, 5, 5}, {5, 5, 5}, {1, 5, 1}, {5, 1, 5}}
	all := flatten(blocks)
	oc, err := RunFT(newNet(t, 2), blocks)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Detected() {
		t.Fatalf("spurious detection: %v", oc.HostErrors)
	}
	if err := checker.Verify(all, flatten(oc.SortedBlocks), true); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	nw := newNet(t, 1)
	if _, _, err := RunNR(nw, [][]int64{{1}}); err == nil {
		t.Error("wrong block count: want error")
	}
	if _, _, err := RunNR(nw, [][]int64{{1}, {2, 3}}); err == nil {
		t.Error("ragged blocks: want error")
	}
	if _, _, err := RunNR(nw, [][]int64{{}, {}}); err == nil {
		t.Error("empty blocks: want error")
	}
	if _, err := RunFTWithOptions(nw, [][]int64{{1}, {2}}, make([]Options, 1)); err == nil {
		t.Error("wrong option count: want error")
	}
}

func TestProgressBlocks(t *testing.T) {
	tests := []struct {
		name    string
		blocks  [][]int64
		final   bool
		wantErr bool
	}{
		{"final sorted", [][]int64{{1, 2}, {3, 4}}, true, false},
		{"final unsorted boundary", [][]int64{{1, 5}, {3, 4}}, true, true},
		{"block internally unsorted", [][]int64{{2, 1}, {3, 4}}, true, true},
		{"stage canonical", [][]int64{{1, 2}, {3, 4}, {9, 10}, {5, 6}}, false, false},
		{"stage lower broken", [][]int64{{3, 4}, {1, 2}, {9, 10}, {5, 6}}, false, true},
		{"stage upper broken", [][]int64{{1, 2}, {3, 4}, {5, 6}, {9, 10}}, false, true},
		{"odd count", [][]int64{{1}, {2}, {3}}, false, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := ProgressBlocks(tc.blocks, tc.final)
			if (err != nil) != tc.wantErr {
				t.Fatalf("ProgressBlocks(%v, final=%v) = %v, wantErr %v", tc.blocks, tc.final, err, tc.wantErr)
			}
		})
	}
}

func TestFTMessageCountMatchesNR(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	dim, m := 3, 4
	n := 1 << uint(dim)
	blocks, _ := randomBlocks(rng, n, m, 100)

	nwNR := newNet(t, dim)
	_, resNR, err := RunNR(nwNR, blocks)
	if err != nil {
		t.Fatal(err)
	}
	nwFT := newNet(t, dim)
	oc, err := RunFT(nwFT, blocks)
	if err != nil {
		t.Fatal(err)
	}
	nrMsgs := resNR.Metrics.MsgsByKind[wire.KindExchange]
	ftMsgs := oc.Result.Metrics.MsgsByKind[wire.KindFTExchange]
	if nrMsgs != ftMsgs {
		t.Errorf("main-loop messages: NR %d vs FT %d (must match)", nrMsgs, ftMsgs)
	}
	nrBytes := resNR.Metrics.BytesByKind[wire.KindExchange]
	ftBytes := oc.Result.Metrics.BytesByKind[wire.KindFTExchange]
	if ftBytes <= nrBytes {
		t.Errorf("FT bytes %d not larger than NR bytes %d", ftBytes, nrBytes)
	}
}

func TestFTByzantineBlockLieDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	dim, m := 3, 4
	n := 1 << uint(dim)
	blocks, _ := randomBlocks(rng, n, m, 50)
	opts := make([]Options, n)
	opts[4] = Options{SkipChecks: true, Tamper: func(msg *wire.Message) *wire.Message {
		if msg.Kind != wire.KindFTExchange || msg.Stage < 1 {
			return msg
		}
		p, err := wire.DecodeFTExchange(msg.Payload)
		if err != nil || len(p.Keys) == 0 {
			return msg
		}
		p.Keys[0] = 7777
		buf, err := wire.EncodeFTExchange(p)
		if err != nil {
			return msg
		}
		msg.Payload = buf
		return msg
	}}
	oc, err := RunFTWithOptions(newFaultNet(t, dim), blocks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatalf("block key lie went undetected; out=%v", oc.SortedBlocks)
	}
}

func TestFTByzantineViewLieDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	dim, m := 2, 3
	n := 1 << uint(dim)
	blocks, _ := randomBlocks(rng, n, m, 50)
	opts := make([]Options, n)
	opts[1] = Options{SkipChecks: true, Tamper: func(msg *wire.Message) *wire.Message {
		if msg.Kind != wire.KindFTExchange || msg.Stage < 1 {
			return msg
		}
		p, err := wire.DecodeFTExchange(msg.Payload)
		if err != nil || len(p.View.Vals) == 0 {
			return msg
		}
		p.View.Vals[0] = -9999
		buf, err := wire.EncodeFTExchange(p)
		if err != nil {
			return msg
		}
		msg.Payload = buf
		return msg
	}}
	oc, err := RunFTWithOptions(newFaultNet(t, dim), blocks, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatal("block view lie went undetected")
	}
}

func TestFTNeverSilentlyWrong(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	dim, m := 2, 3
	n := 1 << uint(dim)
	for trial := 0; trial < 10; trial++ {
		blocks, all := randomBlocks(rng, n, m, 30)
		faulty := rng.Intn(n)
		lie := int64(rng.Intn(500) - 250)
		opts := make([]Options, n)
		opts[faulty] = Options{SkipChecks: true, Tamper: func(msg *wire.Message) *wire.Message {
			if msg.Kind != wire.KindFTExchange || msg.Stage < 1 {
				return msg
			}
			p, err := wire.DecodeFTExchange(msg.Payload)
			if err != nil || len(p.Keys) == 0 {
				return msg
			}
			for i := range p.Keys {
				p.Keys[i] = lie
			}
			buf, err := wire.EncodeFTExchange(p)
			if err != nil {
				return msg
			}
			msg.Payload = buf
			return msg
		}}
		oc, err := RunFTWithOptions(newFaultNet(t, dim), blocks, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !oc.Detected() {
			if verr := checker.Verify(all, flatten(oc.SortedBlocks), true); verr != nil {
				t.Fatalf("trial %d: silent wrong output (faulty=%d lie=%d): %v",
					trial, faulty, lie, verr)
			}
		}
	}
}

// TestBlockViewArenaIsSlotSequence pins the arena invariant the FT
// runner reads its stage sequences through: slots are consecutive
// m-key slices of one arena, so data[lo*m:hi*m] is the slot-order
// sequence of slots [lo, hi), also after a reset to a smaller subcube
// reuses the arena.
func TestBlockViewArenaIsSlotSequence(t *testing.T) {
	topo := hypercube.MustNew(3)
	full, err := topo.HomeSubcube(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	half, err := topo.HomeSubcube(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	const m = 3
	bv := newBlockView(full, m)
	for _, sc := range []hypercube.Subcube{full, half} {
		bv.reset(sc, m)
		want := make([]int64, 0, sc.Size()*m)
		for slot := 0; slot < sc.Size(); slot++ {
			b := []int64{int64(10 * slot), int64(10*slot + 1), int64(10*slot + 2)}
			bv.set(sc.Start+slot, b)
			want = append(want, b...)
		}
		if !bv.complete() {
			t.Fatalf("%v: complete() = false on full view", sc)
		}
		for lo := 0; lo <= sc.Size(); lo++ {
			for hi := lo; hi <= sc.Size(); hi++ {
				got := bv.seq(lo, hi)
				if !equalKeys(got, want[lo*m:hi*m]) {
					t.Fatalf("%v: seq(%d, %d) = %v, want %v", sc, lo, hi, got, want[lo*m:hi*m])
				}
				if lo < hi && &got[0] != &bv.data[lo*m] {
					t.Fatalf("%v: seq(%d, %d) is a copy, not the arena's data[%d:%d]", sc, lo, hi, lo*m, hi*m)
				}
			}
		}
		if d := bv.rangeDigest(0, sc.Size()); d != wire.DigestOf(want) {
			t.Fatalf("%v: rangeDigest = %v, want digest of the sequence %v", sc, d, wire.DigestOf(want))
		}
	}
}

// progressBlocksRef is Φ_P for blocks as the flatten-then-scan code
// wrote it before seam checking: it builds each concatenation and
// tests it with bitonic.IsSorted. ProgressBlocks must agree with it,
// error text included, on every input.
func progressBlocksRef(blocks [][]int64, final bool) error {
	for i, b := range blocks {
		if !bitonic.IsSorted(b, true) {
			return fmt.Errorf("block %d not internally sorted: %w", i, core.ErrProgress)
		}
	}
	flat := func(lo, hi int, rev bool) []int64 {
		var out []int64
		if rev {
			for i := hi - 1; i >= lo; i-- {
				out = append(out, blocks[i]...)
			}
		} else {
			for i := lo; i < hi; i++ {
				out = append(out, blocks[i]...)
			}
		}
		return out
	}
	if final {
		if !bitonic.IsSorted(flat(0, len(blocks), false), true) {
			return fmt.Errorf("final block concatenation not ascending: %w", core.ErrProgress)
		}
		return nil
	}
	if len(blocks)%2 != 0 {
		return fmt.Errorf("odd block count %d: %w", len(blocks), core.ErrProgress)
	}
	half := len(blocks) / 2
	if !bitonic.IsSorted(flat(0, half, false), true) {
		return fmt.Errorf("lower half block concatenation not ascending: %w", core.ErrProgress)
	}
	if !bitonic.IsSorted(flat(half, len(blocks), true), true) {
		return fmt.Errorf("upper half reverse concatenation not ascending: %w", core.ErrProgress)
	}
	return nil
}

// progressCase builds a block set in the shape Φ_P accepts (a sorted
// run split into blocks, the upper half's block order reversed for a
// stage), then perturbs it at random so seams, block interiors and
// lengths all get broken some of the time. Keys come from a small span
// so equal keys straddle seams.
func progressCase(rng *rand.Rand, final bool) [][]int64 {
	n := 1 + rng.Intn(8)
	m := 1 + rng.Intn(4)
	keys := make([]int64, n*m)
	for i := range keys {
		keys[i] = int64(rng.Intn(6))
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	blocks := make([][]int64, n)
	for i := range blocks {
		blocks[i] = keys[i*m : (i+1)*m]
	}
	if !final {
		half := n / 2
		lower := append([]int64{}, keys[:half*m]...)
		upper := append([]int64{}, keys[half*m:]...)
		for i := 0; i < half; i++ {
			blocks[i] = lower[i*m : (i+1)*m]
		}
		for i := half; i < n; i++ {
			k := n - 1 - i
			blocks[i] = upper[k*m : (k+1)*m]
		}
	}
	switch rng.Intn(6) {
	case 0: // leave well-formed
	case 1: // swap two blocks
		i, j := rng.Intn(n), rng.Intn(n)
		blocks[i], blocks[j] = blocks[j], blocks[i]
	case 2: // move one key
		b := blocks[rng.Intn(n)]
		b[rng.Intn(m)] = int64(rng.Intn(8) - 1)
	case 3: // shift one block up or down, keeping it internally sorted
		b := blocks[rng.Intn(n)]
		d := int64(rng.Intn(5) - 2)
		for k := range b {
			b[k] += d
		}
	case 4: // empty one block
		blocks[rng.Intn(n)] = nil
	case 5: // one single-key block
		i := rng.Intn(n)
		blocks[i] = blocks[i][:1]
	}
	return blocks
}

func TestProgressBlocksMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	fixed := []struct {
		blocks [][]int64
		final  bool
	}{
		{[][]int64{{4, 4}}, true},
		{[][]int64{{4, 4}}, false},
		{[][]int64{{1}, {1}, {1}, {1}}, false},
		{[][]int64{{1}, {2}, {2}, {3}}, true},
		{[][]int64{{1, 3}, {3, 3}, {5, 5}, {3, 5}}, false},
		{[][]int64{{1, 3}, {}, {2, 3}}, true},
		{[][]int64{{}, {}}, false},
		{nil, true},
		{nil, false},
	}
	for _, tc := range fixed {
		want, got := progressBlocksRef(tc.blocks, tc.final), ProgressBlocks(tc.blocks, tc.final)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ProgressBlocks(%v, final=%v) = %v, reference %v", tc.blocks, tc.final, got, want)
		}
	}
	failed := map[bool]int{}
	for trial := 0; trial < 4000; trial++ {
		final := trial%2 == 0
		blocks := progressCase(rng, final)
		want, got := progressBlocksRef(blocks, final), ProgressBlocks(blocks, final)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d: ProgressBlocks(%v, final=%v) = %v, reference %v", trial, blocks, final, got, want)
		}
		if got != nil && !errors.Is(got, core.ErrProgress) {
			t.Fatalf("trial %d: %v does not wrap ErrProgress", trial, got)
		}
		if got != nil {
			failed[final]++
		}
	}
	// Both verdicts must be well represented in both modes, or the
	// comparison above proves little.
	for _, final := range []bool{false, true} {
		if n := failed[final]; n < 400 || n > 1600 {
			t.Errorf("final=%v: %d of 2000 cases rejected; generator is lopsided", final, n)
		}
	}
}

// TestProgressBlocksZeroAllocs pins Φ_P's accepting path at zero
// allocations: the concatenations are checked at their seams, never
// built.
func TestProgressBlocksZeroAllocs(t *testing.T) {
	stage := [][]int64{{1, 2}, {2, 4}, {9, 10}, {5, 6}}
	final := [][]int64{{1, 2}, {2, 4}, {5, 6}, {9, 10}}
	allocs := testing.AllocsPerRun(100, func() {
		if ProgressBlocks(stage, false) != nil || ProgressBlocks(final, true) != nil {
			t.Fatal("well-formed blocks rejected")
		}
	})
	if allocs != 0 {
		t.Fatalf("ProgressBlocks: %v allocs/op, want 0", allocs)
	}
}

// TestFTFeasibilityDigestMissEvidence drives Φ_F off its digest fast
// path: a memory fault raises or lowers one resident key at a stage
// boundary, keeping every block and seam ordered, so only the
// permutation test can catch it. Every node whose previous sequence
// covers the corrupted node misses the digest and runs the
// element-level scan over a slot range of its view; the evidence text
// and the (absent) accusation are pinned.
func TestFTFeasibilityDigestMissEvidence(t *testing.T) {
	const detail = "value %d appears more often than in previous stage: core: feasibility predicate violated"
	for _, tc := range []struct {
		name      string
		node      int
		stage     int
		corrupt   func(keys []int64)
		wantNodes []int
		wantValue int64
	}{
		// Stage 1: node 2's previous subcube is the upper slot range
		// [2, 4) of its view, so the scan reads a sub-slice at an offset.
		{"stage upper half", 2, 1, func(keys []int64) { keys[len(keys)-1] = 1000 }, []int{2, 3}, 1000},
		// Final round: the scan reads the whole final view.
		{"final round", 0, 2, func(keys []int64) { keys[0] = -1000 }, []int{0, 1, 2, 3}, -1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blocks := [][]int64{{40, 7, 19, 3}, {12, 5, 33, 28}, {9, 21, 1, 16}, {30, 2, 25, 14}}
			opts := make([]Options, len(blocks))
			opts[tc.node] = Options{CorruptMemory: func(s int, keys []int64) {
				if s == tc.stage {
					tc.corrupt(keys)
				}
			}}
			oc, err := RunFTWithOptions(newFaultNet(t, 2), blocks, opts)
			if err != nil {
				t.Fatal(err)
			}
			var nodes []int
			for _, he := range oc.HostErrors {
				if he.Predicate != core.PredicateName(core.ErrFeasibility) {
					continue
				}
				nodes = append(nodes, he.Node)
				if he.Stage != tc.stage || he.Iter != -1 || he.Kind != core.KindShape || he.Accused != -1 ||
					he.Detail != fmt.Sprintf(detail, tc.wantValue) {
					t.Errorf("node %d evidence %+v", he.Node, he)
				}
			}
			sort.Ints(nodes)
			if fmt.Sprint(nodes) != fmt.Sprint(tc.wantNodes) {
				t.Fatalf("feasibility reported by nodes %v, want %v (host errors %+v)", nodes, tc.wantNodes, oc.HostErrors)
			}
		})
	}
}
