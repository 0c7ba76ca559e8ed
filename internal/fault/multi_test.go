package fault

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/reliablesort"
	"repro/internal/wire"
)

// nodePairs lists the unordered pairs of distinct nodes of an n-node
// cube, in (a, b) order.
func nodePairs(n int) [][2]int {
	var pairs [][2]int
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			pairs = append(pairs, [2]int{a, b})
		}
	}
	return pairs
}

// messagePairs places the strategy at both nodes of every pair of a
// dim-3 cube, lying with lie and lie+1: two independent liars.
func messagePairs(st Strategy, lie int64) []Set {
	var sets []Set
	for _, p := range nodePairs(8) {
		sets = append(sets, Set{
			{Msg: &Spec{Node: p[0], Strategy: st, ActivateStage: 1, LieValue: lie}},
			{Msg: &Spec{Node: p[1], Strategy: st, ActivateStage: 1, LieValue: lie + 1}},
		})
	}
	return sets
}

// Theorem 3's multi-fault reach: with two simultaneous, independently
// lying Byzantine processors (the n−1 bound for an 8-node cube), no
// pair placement may produce a silently wrong result.
func TestPairwiseFaultsNeverSilentlyWrong(t *testing.T) {
	sets := messagePairs(KeyLie, 900)
	res, err := injectAll(3, paperKeys(), 1, sets)
	if err != nil {
		t.Fatal(err)
	}
	sum := Summarize(res)
	if sum.Total != 28 {
		t.Fatalf("pairs = %d, want 28", sum.Total)
	}
	if sum.SilentWrong != 0 {
		for i, r := range res {
			if r.Verdict == SilentWrong {
				t.Errorf("SILENT WRONG: pair (%d,%d)", sets[i][0].Faulty(), sets[i][1].Faulty())
			}
		}
		t.Fatalf("summary: %+v", sum)
	}
	if sum.Detected < sum.Total*3/4 {
		t.Errorf("only %d/%d pairs detected", sum.Detected, sum.Total)
	}
}

func TestPairwiseSplitLies(t *testing.T) {
	res, err := injectAll(3, paperKeys(), 1, messagePairs(SplitLie, 700))
	if err != nil {
		t.Fatal(err)
	}
	if sum := Summarize(res); sum.SilentWrong != 0 {
		t.Fatalf("split-lie pairs: %+v", sum)
	}
}

// TestMixedClassPairs places every ordered pair of seven fault kinds —
// two message lies, a persistent lying comparator, three memory
// faults and a crash, as the explorer's dim-3 menu arms them — at
// every pair of nodes of the 8-node cube: 28 × 49 placements, 364 of
// them with a crash. Every placement is detected or harmless except
// the four that make both nodes of stage 0's subcube {0,1} read −7,
// below every key, from stage 1 on. No honest node saw that subcube's
// keys before they changed, so the run sorts a different input: the
// change environmental assumption 5 sets outside S_FT's reach (DESIGN
// §6). reliablesort.Sort's host-side check refuses each of them.
func TestMixedClassPairs(t *testing.T) {
	kinds := []struct{ label, menu string }{
		{"key-lie", "msg/key-lie/n0/s1"},
		{"split-lie", "msg/split-lie/n0/s1"},
		{"cmp-persistent", "cmp/cmp-persistent/n0"},
		{"mem-flip", "mem/mem-flip/n0"},
		{"mem-stuck", "mem/mem-stuck/n0"},
		{"mem-wipe", "mem/mem-wipe/n0"},
		{"crash", "crash/n0"},
	}
	menu := map[string]Case{}
	for _, c := range SingleFaultCases(3) {
		menu[c.Name] = c
	}
	var sets []Set
	var names []string
	for _, p := range nodePairs(8) {
		for _, ka := range kinds {
			for _, kb := range kinds {
				sets = append(sets, Set{menu[ka.menu].At(p[0]), menu[kb.menu].At(p[1])})
				names = append(names, fmt.Sprintf("n%d %s + n%d %s", p[0], ka.label, p[1], kb.label))
			}
		}
	}
	res, err := injectAll(3, paperKeys(), 1, sets)
	if err != nil {
		t.Fatal(err)
	}
	var silent []string
	for i, r := range res {
		if r.Verdict == SilentWrong {
			silent = append(silent, names[i])
		}
	}
	want := []string{
		"n0 mem-stuck + n1 mem-stuck",
		"n0 mem-stuck + n1 mem-wipe",
		"n0 mem-wipe + n1 mem-stuck",
		"n0 mem-wipe + n1 mem-wipe",
	}
	if !slices.Equal(silent, want) {
		t.Fatalf("silent-wrong placements:\n%q\nwant\n%q", silent, want)
	}
	sum := Summarize(res)
	if sum.Total != 28*49 || sum.Detected < sum.Total*3/4 {
		t.Errorf("summary %+v over %d placements", sum, len(sets))
	}
	t.Logf("%+v", sum)
	for i, r := range res {
		if r.Verdict == SilentWrong {
			out, _, err := reliablesort.Sort(paperKeys(), reliablesort.Options{Dim: 3, Inject: Follow(sets[i], true)})
			if err == nil || out != nil || !strings.Contains(err.Error(), "post-verification") {
				t.Errorf("%s: Sort returned %v, %v; want the post-verification refusal", names[i], out, err)
			}
		}
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
		var s Set
		for i, lie := range []int64{500, 600, 700} {
			s = append(s, Case{Msg: &Spec{Node: perm[i], Strategy: strategies[rng.Intn(len(strategies))], ActivateStage: 1, LieValue: lie}})
		}
		r, err := Inject(dim, keys, 1, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict == SilentWrong {
			t.Fatalf("trial %d: silent wrong with placement %v", trial, []*Spec{s[0].Msg, s[1].Msg, s[2].Msg})
		}
	}
}

// Randomized adversary search: no mutation stream found in the trial
// budget may produce a silently wrong output. Failures print the
// reproduction seeds.
func TestAdversarySearchFindsNoSilentWrong(t *testing.T) {
	sum, counterexamples, err := AdversarySearch(3, paperKeys(), 40, 20260706)
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
	if _, _, err := AdversarySearch(3, []int64{1}, 5, 1); err == nil {
		t.Error("wrong key count: want error")
	}
}

func TestRandomAdversaryDeterministic(t *testing.T) {
	m := func() *wire.Message {
		return &wire.Message{Kind: wire.KindFTExchange, Stage: 2, Payload: []byte{1, 2, 3, 4, 5}}
	}
	a := randomAdversary(7, 1)
	b := randomAdversary(7, 1)
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

func TestSetValidate(t *testing.T) {
	good := Spec{Node: 1, Strategy: KeyLie, ActivateStage: 1}
	one, three, nine := 1, 3, 9
	for name, s := range map[string]Set{
		"invalid node":           {{Msg: &Spec{Node: 99, Strategy: KeyLie, ActivateStage: 1}}},
		"duplicate node":         {{Msg: &good}, {Msg: &good}},
		"crash on a faulty node": {{Msg: &good}, {Crashed: &one}},
		"crash outside the cube": {{Crashed: &nine}},
		"two faults in one case": {{Msg: &good, Crashed: &three}},
	} {
		if err := s.Validate(8); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	mixed := Set{{}, {Msg: &good}, {Cmp: &CmpSpec{Node: 2, Mode: CmpPersistent, ActivateStage: 1}}, {Crashed: &three}}
	if err := mixed.Validate(8); err != nil {
		t.Errorf("mixed placement: %v", err)
	}
	if _, err := Inject(3, []int64{1}, 1, Set{{Msg: &good}}); err == nil {
		t.Error("wrong key count: want error")
	}
}

func TestZeroFaultMultiIsClean(t *testing.T) {
	for _, s := range []Set{nil, {{Name: "none"}}} {
		r, err := Inject(3, paperKeys(), 1, s)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != CorrectDespiteFault {
			t.Errorf("verdict = %v on fault-free placement %v", r.Verdict, s)
		}
	}
}
