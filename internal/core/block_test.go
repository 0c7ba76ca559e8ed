package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitonic"
	"repro/internal/checker"
	"repro/internal/hypercube"
	"repro/internal/sortnr"
	"repro/internal/wire"
)

// randomKeys returns n blocks of m keys drawn from [-span/2, span/2),
// flat in node order.
func randomKeys(rng *rand.Rand, n, m, span int) []int64 {
	keys := make([]int64, n*m)
	for i := range keys {
		keys[i] = int64(rng.Intn(span) - span/2)
	}
	return keys
}

func TestRunFTSorts(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, tc := range []struct{ dim, m int }{
		{0, 4}, {1, 3}, {2, 4}, {3, 4}, {4, 2},
	} {
		keys := randomKeys(rng, 1<<uint(tc.dim), tc.m, 100)
		oc, err := RunBlocks(newNet(t, tc.dim), keys, tc.m, nil)
		if err != nil {
			t.Fatalf("dim=%d m=%d: %v", tc.dim, tc.m, err)
		}
		if oc.Detected() {
			t.Fatalf("dim=%d m=%d: spurious detection: %v %v",
				tc.dim, tc.m, oc.Result.FirstNodeErr(), oc.HostErrors)
		}
		if err := checker.Verify(keys, oc.Sorted, true); err != nil {
			t.Fatalf("dim=%d m=%d: %v (out=%v)", tc.dim, tc.m, err, oc.Sorted)
		}
	}
}

func TestRunFTDuplicateHeavy(t *testing.T) {
	keys := []int64{5, 5, 5, 5, 5, 5, 1, 5, 1, 5, 1, 5}
	oc, err := RunBlocks(newNet(t, 2), keys, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Detected() {
		t.Fatalf("spurious detection: %v", oc.HostErrors)
	}
	if err := checker.Verify(keys, oc.Sorted, true); err != nil {
		t.Fatal(err)
	}
}

func TestValidation(t *testing.T) {
	nw := newNet(t, 1)
	if _, err := RunBlocks(nw, []int64{1, 2, 3}, 2, nil); err == nil {
		t.Error("3 keys for 2 blocks of 2: want error")
	}
	if _, err := RunBlocks(nw, nil, 0, nil); err == nil {
		t.Error("empty blocks: want error")
	}
	if _, err := RunBlocks(nw, []int64{1, 2}, 1, make([]Options, 1)); err == nil {
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
	keys := randomKeys(rng, n, m, 100)

	_, resNR, err := sortnr.RunBlocks(newNet(t, dim), keys, m)
	if err != nil {
		t.Fatal(err)
	}
	oc, err := RunBlocks(newNet(t, dim), keys, m, nil)
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
	keys := randomKeys(rng, n, m, 50)
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
	oc, err := RunBlocks(newFaultNet(t, dim), keys, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatalf("block key lie went undetected; out=%v", oc.Sorted)
	}
}

func TestFTByzantineViewLieDetected(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	dim, m := 2, 3
	n := 1 << uint(dim)
	keys := randomKeys(rng, n, m, 50)
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
	oc, err := RunBlocks(newFaultNet(t, dim), keys, m, opts)
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
		keys := randomKeys(rng, n, m, 30)
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
		oc, err := RunBlocks(newFaultNet(t, dim), keys, m, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !oc.Detected() {
			if verr := checker.Verify(keys, oc.Sorted, true); verr != nil {
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
				if !slices.Equal(got, want[lo*m:hi*m]) {
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
			return fmt.Errorf("block %d not internally sorted: %w", i, ErrProgress)
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
			return fmt.Errorf("final block concatenation not ascending: %w", ErrProgress)
		}
		return nil
	}
	if len(blocks)%2 != 0 {
		return fmt.Errorf("odd block count %d: %w", len(blocks), ErrProgress)
	}
	half := len(blocks) / 2
	if !bitonic.IsSorted(flat(0, half, false), true) {
		return fmt.Errorf("lower half block concatenation not ascending: %w", ErrProgress)
	}
	if !bitonic.IsSorted(flat(half, len(blocks), true), true) {
		return fmt.Errorf("upper half reverse concatenation not ascending: %w", ErrProgress)
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
		if got != nil && !errors.Is(got, ErrProgress) {
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

	// At one key per block ProgressBlocks is S_FT's Φ_P: its verdict
	// must agree with Progress over the flat sequence on every input.
	rejected := map[bool]int{}
	for trial := 0; trial < 4000; trial++ {
		final := trial%2 == 0
		seq := progressSeq(rng, final)
		blocks := make([][]int64, len(seq))
		for i := range seq {
			blocks[i] = seq[i : i+1]
		}
		got, want := ProgressBlocks(blocks, final), Progress(seq, final)
		if (got == nil) != (want == nil) {
			t.Fatalf("trial %d: 1-key ProgressBlocks(%v, final=%v) = %v, Progress = %v", trial, seq, final, got, want)
		}
		if got != nil {
			rejected[final]++
		}
	}
	for _, final := range []bool{false, true} {
		if n := rejected[final]; n < 400 || n > 1600 {
			t.Errorf("1-key final=%v: %d of 2000 cases rejected; generator is lopsided", final, n)
		}
	}
}

// progressSeq builds a flat sequence in the shape Progress accepts
// half the time (sorted for the final check; lower half ascending and
// upper half descending for a stage), then perturbs one key some of
// the time. Lengths run from 0 to 8, odd ones included.
func progressSeq(rng *rand.Rand, final bool) []int64 {
	seq := make([]int64, rng.Intn(9))
	for i := range seq {
		seq[i] = int64(rng.Intn(6))
	}
	if rng.Intn(2) == 0 {
		half := len(seq)
		if !final {
			half = len(seq) / 2
		}
		slices.Sort(seq[:half])
		slices.Sort(seq[half:])
		slices.Reverse(seq[half:])
	}
	if len(seq) > 0 && rng.Intn(3) == 0 {
		seq[rng.Intn(len(seq))] = int64(rng.Intn(8) - 1)
	}
	return seq
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
			keys := []int64{40, 7, 19, 3, 12, 5, 33, 28, 9, 21, 1, 16, 30, 2, 25, 14}
			opts := make([]Options, 4)
			opts[tc.node] = Options{CorruptMemory: func(s int, keys []int64) {
				if s == tc.stage {
					tc.corrupt(keys)
				}
			}}
			oc, err := RunBlocks(newFaultNet(t, 2), keys, 4, opts)
			if err != nil {
				t.Fatal(err)
			}
			var nodes []int
			for _, he := range oc.HostErrors {
				if he.Predicate != PredicateName(ErrFeasibility) {
					continue
				}
				nodes = append(nodes, he.Node)
				if he.Stage != tc.stage || he.Iter != -1 || he.Kind != KindShape || he.Accused != -1 ||
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
