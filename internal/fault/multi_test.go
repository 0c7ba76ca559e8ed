package fault

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/wire"
)

// Theorem 3's multi-fault reach: with two simultaneous, independently
// lying Byzantine processors (the n−1 bound for an 8-node cube), no
// pair placement may produce a silently wrong result.
func TestPairwiseFaultsNeverSilentlyWrong(t *testing.T) {
	res, err := CoveragePairs(3, paperKeys(), KeyLie, 900, faultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	sum := SummarizeMulti(res)
	if sum.Total != 28 {
		t.Fatalf("pairs = %d, want 28", sum.Total)
	}
	if sum.SilentWrong != 0 {
		for _, r := range res {
			if r.Verdict == SilentWrong {
				t.Errorf("SILENT WRONG: pair (%d,%d)", r.Specs[0].Node, r.Specs[1].Node)
			}
		}
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Detected < sum.Total*3/4 {
		t.Errorf("only %d/%d pairs detected", sum.Detected, sum.Total)
	}
}

func TestPairwiseSplitLies(t *testing.T) {
	res, err := CoveragePairs(3, paperKeys(), SplitLie, 700, faultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if sum := SummarizeMulti(res); sum.SilentWrong != 0 {
		t.Fatalf("split-lie pairs: %+v", sum)
	}
}

// Random triples on a 16-node cube (the n−1 = 3 bound) with mixed
// strategies: still never silently wrong.
func TestRandomTriplesNeverSilentlyWrong(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	dim := 4
	n := 1 << uint(dim)
	keys := paperKeys()
	keys = append(keys, 12, 1, 6, 11, 14, 0, 13, 15) // extend to 16
	strategies := []Strategy{KeyLie, SplitLie, ViewLie, WrongCompare}
	for trial := 0; trial < 12; trial++ {
		perm := rng.Perm(n)
		specs := []Spec{
			{Node: perm[0], Strategy: strategies[rng.Intn(len(strategies))], ActivateStage: 1, LieValue: 500},
			{Node: perm[1], Strategy: strategies[rng.Intn(len(strategies))], ActivateStage: 1, LieValue: 600},
			{Node: perm[2], Strategy: strategies[rng.Intn(len(strategies))], ActivateStage: 1, LieValue: 700},
		}
		r, err := InjectSFTMulti(dim, keys, specs, faultTimeout)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict == SilentWrong {
			t.Fatalf("trial %d: silent wrong with specs %+v", trial, specs)
		}
	}
}

// Randomized adversary search: no mutation stream found in the trial
// budget may produce a silently wrong output. Failures print the
// reproduction seeds.
func TestAdversarySearchFindsNoSilentWrong(t *testing.T) {
	sum, counterexamples, err := AdversarySearch(3, paperKeys(), 40, 20260706, faultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SilentWrong != 0 {
		t.Fatalf("adversary found %d silent-wrong runs; repro seeds %v", sum.SilentWrong, counterexamples)
	}
	if sum.Total != 40 {
		t.Errorf("total = %d", sum.Total)
	}
	// The adversary must actually be disruptive most of the time, not
	// accidentally benign.
	if sum.Detected < 20 {
		t.Errorf("only %d/40 adversarial runs detected; adversary too tame", sum.Detected)
	}
}

func TestAdversarySearchValidation(t *testing.T) {
	if _, _, err := AdversarySearch(3, []int64{1}, 5, 1, faultTimeout); err == nil {
		t.Error("wrong key count: want error")
	}
}

func TestRandomAdversaryDeterministic(t *testing.T) {
	m := func() *wire.Message {
		return &wire.Message{Kind: wire.KindFTExchange, Stage: 2, Payload: []byte{1, 2, 3, 4, 5}}
	}
	a := RandomAdversary(7, 1)
	b := RandomAdversary(7, 1)
	for i := 0; i < 50; i++ {
		x, y := a(m()), b(m())
		if (x == nil) != (y == nil) {
			t.Fatal("adversaries diverged on drop decision")
		}
		if x != nil && string(x.Payload) != string(y.Payload) {
			t.Fatal("adversaries diverged on mutation")
		}
	}
	// Pre-activation messages pass through untouched.
	early := &wire.Message{Kind: wire.KindFTExchange, Stage: 0, Payload: []byte{9}}
	if got := a(early); got != early {
		t.Error("pre-activation message modified")
	}
}

func TestInjectSFTMultiValidation(t *testing.T) {
	good := Spec{Node: 1, Strategy: KeyLie, ActivateStage: 1}
	if _, err := InjectSFTMulti(3, []int64{1}, []Spec{good}, faultTimeout); err == nil {
		t.Error("wrong key count: want error")
	}
	if _, err := InjectSFTMulti(3, paperKeys(), []Spec{good, good}, faultTimeout); err == nil {
		t.Error("duplicate node: want error")
	}
	bad := Spec{Node: 99, Strategy: KeyLie, ActivateStage: 1}
	if _, err := InjectSFTMulti(3, paperKeys(), []Spec{bad}, faultTimeout); err == nil {
		t.Error("invalid node: want error")
	}
}

// A single-element specs list must agree with Inject's verdicts.
func TestMultiDegeneratesToSingle(t *testing.T) {
	spec := Spec{Node: 2, Strategy: KeyLie, ActivateStage: 1, LieValue: 999}
	single, err := Inject(3, paperKeys(), 1, Case{Msg: &spec}, faultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := InjectSFTMulti(3, paperKeys(), []Spec{spec}, faultTimeout)
	if err != nil {
		t.Fatal(err)
	}
	if single.Verdict != multi.Verdict {
		t.Errorf("single %v vs multi %v", single.Verdict, multi.Verdict)
	}
}

func TestZeroFaultMultiIsClean(t *testing.T) {
	r, err := InjectSFTMulti(3, paperKeys(), nil, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r.Verdict != CorrectDespiteFault {
		t.Errorf("verdict = %v on fault-free run", r.Verdict)
	}
}
