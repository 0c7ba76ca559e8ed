package core

import (
	"math/rand"
	"testing"

	"repro/internal/hypercube"
	"repro/internal/wire"
)

// TestFeasibilityDiagnosticDeterministic pins the Φ_F slow-path error
// messages: the reported value must be the same on every run (the
// "missing value" scan walks prev in order, never the counting map, so
// map iteration order cannot leak into diagnostics). The exact strings
// matter — operators grep journals for them, and the digest fast path
// promises the slow path still produces today's errors.
func TestFeasibilityDiagnosticDeterministic(t *testing.T) {
	cases := []struct {
		name       string
		prev, cur  []int64
		wantErrMsg string
	}{
		{
			name:       "accept",
			prev:       []int64{5, 1, 5, 2},
			cur:        []int64{2, 5, 1, 5},
			wantErrMsg: "",
		},
		{
			// Several candidate values are wrong; the reported one must
			// be the first offender in cur scan order (the second 2),
			// not whichever map key iteration happens to visit.
			name:       "excess value",
			prev:       []int64{5, 1, 5, 2},
			cur:        []int64{5, 1, 2, 2},
			wantErrMsg: "value 2 appears more often than in previous stage: core: feasibility predicate violated",
		},
		{
			name:       "invented value",
			prev:       []int64{9, 9, 4, 4},
			cur:        []int64{9, 4, 7, 9},
			wantErrMsg: "value 7 appears more often than in previous stage: core: feasibility predicate violated",
		},
		{
			name:       "length mismatch",
			prev:       []int64{1, 2},
			cur:        []int64{1},
			wantErrMsg: "sequence lengths 2 vs 1: core: feasibility predicate violated",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 100; i++ {
				err := Feasibility(tc.prev, tc.cur)
				got := ""
				if err != nil {
					got = err.Error()
				}
				if got != tc.wantErrMsg {
					t.Fatalf("run %d: Feasibility = %q, want %q", i, got, tc.wantErrMsg)
				}
			}
		})
	}
}

// TestDigestAcceptsIffFeasibilityAccepts is the property the tentpole
// rests on: over random multisets, the digest comparison accepts
// exactly when the element-level Feasibility scan accepts. One
// direction is unconditional (equal multisets always digest equal, so
// a digest mismatch is proof of a real difference and the slow path
// will find it); the other is probabilistic with ~2^-64 collision
// odds, which the seeded trials exercise across permutations, single
// mutations, drops-with-duplication, and swaps-with-neighbours.
func TestDigestAcceptsIffFeasibilityAccepts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(64)
		prev := make([]int64, n)
		for i := range prev {
			// Small value range forces duplicates.
			prev[i] = int64(rng.Intn(n))
		}
		cur := append([]int64{}, prev...)
		rng.Shuffle(n, func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
		switch trial % 4 {
		case 0:
			// Pure permutation: must accept.
		case 1:
			// Mutate one element (may or may not change the multiset).
			cur[rng.Intn(n)] += int64(rng.Intn(3)) - 1
		case 2:
			// Replace one element with a copy of another: changes the
			// multiset unless the two were already equal.
			cur[rng.Intn(n)] = cur[rng.Intn(n)]
		case 3:
			// Large disjoint corruption.
			cur[rng.Intn(n)] = int64(1 << 40)
		}
		digestAccept := wire.DigestOf(prev) == wire.DigestOf(cur)
		feasAccept := Feasibility(prev, cur) == nil
		if digestAccept != feasAccept {
			t.Fatalf("trial %d: digest accept = %v, Feasibility accept = %v\nprev = %v\ncur  = %v",
				trial, digestAccept, feasAccept, prev, cur)
		}
		// The two-pointer variant needs its preconditions; the map
		// variant is the ground truth here, and TestFeasibilityAgree*
		// in predicates_test pins the two slow paths to each other.
	}
}

// TestBlockViewDigestTracksValues pins the per-slot digest
// maintenance at one key per slot: after any sequence of writes,
// overwrites included, each half's folded digest equals the
// from-scratch digest of that half's collected values.
func TestBlockViewDigestTracksValues(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sc := hypercube.Subcube{Dim: 3, Start: 8, End: 15}
	g := newBlockView(sc, 1)
	half := sc.Size() / 2
	for step := 0; step < 200; step++ {
		g.set(sc.Start+rng.Intn(sc.Size()), []int64{int64(rng.Intn(32))})
		var want [2]wire.Digest
		for slot := 0; slot < sc.Size(); slot++ {
			if g.have.Has(slot) {
				want[slot/half].Add(g.blocks[slot][0])
			}
		}
		if g.rangeDigest(0, half) != want[0] || g.rangeDigest(half, sc.Size()) != want[1] {
			t.Fatalf("step %d: half digests diverged from recomputation", step)
		}
		if g.digest() != want[0].Merged(want[1]) {
			t.Fatalf("step %d: full digest != merged halves", step)
		}
	}
}

// frameOf encodes g's view as a send does and decodes it in place as a
// receive does; the result aliases dec.
func frameOf(t *testing.T, g *blockView, dec *wire.DecodeScratch) wire.FrameView {
	t.Helper()
	rv, err := wire.DecodeVerifyFrame(dec, g.appendWire(nil))
	if err != nil {
		t.Fatal(err)
	}
	return rv
}

// TestMergeCheckedDigestHitZeroAllocs is the steady-state alloc gate
// for the Φ_C fast path at one key per slot: once every slot is held,
// a merge resolves by folding stored digests and must not allocate —
// the digest layer may not undo the zero-allocation exchange guarantee.
func TestMergeCheckedDigestHitZeroAllocs(t *testing.T) {
	sc := hypercube.Subcube{Dim: 3, Start: 0, End: 7}
	src := newBlockView(sc, 1)
	dst := newBlockView(sc, 1)
	for slot := 0; slot < sc.Size(); slot++ {
		src.set(slot, []int64{int64(slot * 3)})
		dst.set(slot, []int64{int64(slot * 3)})
	}
	var dec wire.DecodeScratch
	rv := frameOf(t, src, &dec)
	step := func() {
		outcome, err := dst.mergeChecked(rv, rv.Mask)
		if err != nil {
			t.Fatal(err)
		}
		if outcome != DigestHit {
			t.Fatalf("outcome = %v, want DigestHit", outcome)
		}
	}
	for i := 0; i < 8; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("digest-hit merge: %v allocs/op, want 0", n)
	}
}

// TestMergeCheckedDigestInconsistencyAccusesSender: a relayed view
// whose aggregate digest disagrees with its own entries (entries match
// ours, so no slot-level conflict exists) must still be rejected — the
// inconsistency itself is Byzantine evidence against the sender.
func TestMergeCheckedDigestInconsistencyAccusesSender(t *testing.T) {
	sc := hypercube.Subcube{Dim: 2, Start: 0, End: 3}
	src := newBlockView(sc, 1)
	dst := newBlockView(sc, 1)
	for slot := 0; slot < sc.Size(); slot++ {
		src.set(slot, []int64{int64(slot + 10)})
		dst.set(slot, []int64{int64(slot + 10)})
	}
	var dec wire.DecodeScratch
	rv := frameOf(t, src, &dec)
	rv.Dig.Sum += 1 // lie about the aggregate, keep entries honest
	outcome, err := dst.mergeChecked(rv, rv.Mask)
	if outcome != DigestMiss {
		t.Fatalf("outcome = %v, want DigestMiss", outcome)
	}
	if err == nil || err.Error() != "view digest inconsistent with relayed entries" {
		t.Fatalf("err = %v, want digest-inconsistency error", err)
	}
}
