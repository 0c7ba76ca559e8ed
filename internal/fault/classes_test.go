package fault

import (
	"bytes"
	"testing"

	"repro/internal/wire"
)

func TestClassNames(t *testing.T) {
	want := map[Class]string{
		ClassMessage:    "message",
		ClassAbsence:    "absence",
		ClassComparison: "comparison",
		ClassMemory:     "memory",
	}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), name)
		}
	}
	if got := Class(42).String(); got != "class(42)" {
		t.Errorf("unknown class = %q", got)
	}
	if len(AllClasses()) != 4 {
		t.Errorf("AllClasses() = %v", AllClasses())
	}
}

func TestStrategyClass(t *testing.T) {
	for _, s := range AllStrategies() {
		want := ClassMessage
		if s == Silence {
			want = ClassAbsence
		}
		if s.Class() != want {
			t.Errorf("%v.Class() = %v, want %v", s, s.Class(), want)
		}
	}
}

func TestVerdictStringUnknown(t *testing.T) {
	cases := map[Verdict]string{
		Detected:            "detected",
		CorrectDespiteFault: "correct-despite-fault",
		SilentWrong:         "SILENT-WRONG",
		Verdict(0):          "verdict(0)",
		Verdict(99):         "verdict(99)",
	}
	for v, want := range cases {
		if got := v.String(); got != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), got, want)
		}
	}
}

func TestCmpSpecValidate(t *testing.T) {
	good := CmpSpec{Node: 1, Mode: CmpPersistent, Rate: 0.5, ActivateStage: 1}
	if err := good.Validate(8); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	for name, bad := range map[string]CmpSpec{
		"node":  {Node: 8, Mode: CmpPersistent, Rate: 0.5, ActivateStage: 1},
		"mode":  {Node: 1, Mode: CmpMode(9), Rate: 0.5, ActivateStage: 1},
		"rate":  {Node: 1, Mode: CmpTransient, Rate: 1.5, ActivateStage: 1},
		"stage": {Node: 1, Mode: CmpTransient, Rate: 0.5, ActivateStage: 0},
	} {
		if err := bad.Validate(8); err == nil {
			t.Errorf("%s: bad spec accepted", name)
		}
	}
	if got := CmpMode(9).String(); got != "cmpmode(9)" {
		t.Errorf("unknown cmp mode = %q", got)
	}
}

func TestMemSpecValidate(t *testing.T) {
	good := MemSpec{Node: 1, Mode: MemWipe, Rate: 1, ActivateStage: 1}
	if err := good.Validate(8); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	for name, bad := range map[string]MemSpec{
		"node":  {Node: -1, Mode: MemFlip, Rate: 1, ActivateStage: 1},
		"mode":  {Node: 1, Mode: MemMode(9), Rate: 1, ActivateStage: 1},
		"rate":  {Node: 1, Mode: MemStuck, Rate: -0.1, ActivateStage: 1},
		"stage": {Node: 1, Mode: MemStuck, Rate: 1, ActivateStage: 0},
	} {
		if err := bad.Validate(8); err == nil {
			t.Errorf("%s: bad spec accepted", name)
		}
	}
	if got := MemMode(9).String(); got != "memmode(9)" {
		t.Errorf("unknown mem mode = %q", got)
	}
}

// TestPersistentComparatorConsistency checks the Geissmann et al.
// persistence property: a lying pair lies identically on every
// evaluation, in either argument order.
func TestPersistentComparatorConsistency(t *testing.T) {
	spec := CmpSpec{Node: 0, Mode: CmpPersistent, Rate: 0.5, Seed: 42, ActivateStage: 1}
	cmp := spec.Comparator()
	lies := 0
	for a := int64(0); a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			first := cmp(1, a, b)
			if !first {
				lies++
			}
			for trial := 0; trial < 3; trial++ {
				if cmp(2, a, b) != first {
					t.Fatalf("pair (%d,%d) changed its answer", a, b)
				}
				// A consistent comparator answers the reversed pair with
				// the negation (no ties among distinct keys).
				if cmp(2, b, a) == first {
					t.Fatalf("pair (%d,%d) inconsistent under argument swap", a, b)
				}
			}
			// Pre-activation comparisons are honest regardless.
			if cmp(0, a, b) != (a <= b) {
				t.Fatalf("pair (%d,%d) lied before activation", a, b)
			}
		}
	}
	if lies == 0 {
		t.Fatal("rate-0.5 persistent comparator never lied across 190 pairs")
	}
}

func TestTransientComparatorRateExtremes(t *testing.T) {
	always := CmpSpec{Node: 0, Mode: CmpTransient, Rate: 1, Seed: 1, ActivateStage: 1}.Comparator()
	never := CmpSpec{Node: 0, Mode: CmpTransient, Rate: 0, Seed: 1, ActivateStage: 1}.Comparator()
	for a := int64(0); a < 10; a++ {
		for b := int64(0); b < 10; b++ {
			if always(1, a, b) == (a <= b) {
				t.Fatalf("rate-1 transient comparator told the truth for (%d,%d)", a, b)
			}
			if never(1, a, b) != (a <= b) {
				t.Fatalf("rate-0 transient comparator lied for (%d,%d)", a, b)
			}
		}
	}
}

func TestCorruptorModes(t *testing.T) {
	base := []int64{5, 6, 7, 8}
	fresh := func() []int64 { return append([]int64(nil), base...) }

	stuck := MemSpec{Node: 0, Mode: MemStuck, Rate: 1, Seed: 3, ActivateStage: 1, StuckValue: -9}.Corruptor()
	keys := fresh()
	stuck(1, keys)
	for i, k := range keys {
		if k != -9 {
			t.Fatalf("stuck-at rate 1: keys[%d] = %d", i, k)
		}
	}

	flip := MemSpec{Node: 0, Mode: MemFlip, Rate: 1, Seed: 3, ActivateStage: 1}.Corruptor()
	keys = fresh()
	flip(1, keys)
	for i, k := range keys {
		if k == base[i] {
			t.Fatalf("flip rate 1 left keys[%d] untouched", i)
		}
	}

	wipe := MemSpec{Node: 0, Mode: MemWipe, Rate: 1, Seed: 3, ActivateStage: 1, StuckValue: 0}.Corruptor()
	keys = fresh()
	wipe(1, keys)
	wiped := 0
	for _, k := range keys {
		if k == 0 {
			wiped++
		}
	}
	if wiped == 0 {
		t.Fatal("wipe rate 1 corrupted nothing")
	}

	// Pre-activation boundaries are untouched.
	keys = fresh()
	stuck2 := MemSpec{Node: 0, Mode: MemStuck, Rate: 1, Seed: 3, ActivateStage: 2, StuckValue: -9}.Corruptor()
	stuck2(1, keys)
	for i, k := range keys {
		if k != base[i] {
			t.Fatalf("pre-activation corruption at keys[%d]", i)
		}
	}
}

// TestCmpInjectorsDetect pins the headline property: a maximally lying
// comparator at one node fail-stops both fault-tolerant algorithms.
func TestCmpInjectorsDetect(t *testing.T) {
	for _, mode := range AllCmpModes() {
		spec := CmpSpec{Node: 2, Mode: mode, Rate: 1, Seed: 11, ActivateStage: 1}
		r, err := Inject(3, paperKeys(), 1, Set{{Cmp: &spec}})
		if err != nil {
			t.Fatalf("%v S_FT: %v", mode, err)
		}
		if r.Verdict != Detected {
			t.Errorf("%v S_FT: verdict %v", mode, r.Verdict)
		}
		spec.Node = 1
		rb, err := Inject(2, blockWorkload(2, 2, 5), 2, Set{{Cmp: &spec}})
		if err != nil {
			t.Fatalf("%v BlockFT: %v", mode, err)
		}
		if rb.Verdict != Detected {
			t.Errorf("%v BlockFT: verdict %v", mode, rb.Verdict)
		}
	}
}

// TestMemInjectorsDetect pins the same for stage-boundary memory
// corruption: an honest node reporting corrupted resident state is
// caught by its peers' predicates.
func TestMemInjectorsDetect(t *testing.T) {
	for _, mode := range AllMemModes() {
		spec := MemSpec{Node: 2, Mode: mode, Rate: 1, Seed: 11, ActivateStage: 1, StuckValue: 1 << 20}
		r, err := Inject(3, paperKeys(), 1, Set{{Mem: &spec}})
		if err != nil {
			t.Fatalf("%v S_FT: %v", mode, err)
		}
		if r.Verdict != Detected {
			t.Errorf("%v S_FT: verdict %v", mode, r.Verdict)
		}
		spec.Node = 3
		rb, err := Inject(2, blockWorkload(2, 2, 5), 2, Set{{Mem: &spec}})
		if err != nil {
			t.Fatalf("%v BlockFT: %v", mode, err)
		}
		if rb.Verdict != Detected {
			t.Errorf("%v BlockFT: verdict %v", mode, rb.Verdict)
		}
	}
}

func TestCmpMemInjectorsRejectBadSpecs(t *testing.T) {
	if _, err := Inject(3, paperKeys(), 1, Set{{Cmp: &CmpSpec{Node: 0, Mode: CmpTransient, Rate: 1}}}); err == nil {
		t.Error("activate-stage-0 cmp spec accepted")
	}
	if _, err := Inject(3, paperKeys()[:2], 1, Set{{Mem: &MemSpec{Node: 0, Mode: MemFlip, Rate: 1, ActivateStage: 1}}}); err == nil {
		t.Error("short workload accepted")
	}
	if _, err := Inject(2, []int64{1}, 1, Set{{Mem: &MemSpec{Node: 0, Mode: MemFlip, Rate: 1, ActivateStage: 1}}}); err == nil {
		t.Error("short block workload accepted")
	}
}

// TestTampersNeverAliasCallerState is the aliasing regression test for
// the tamper hooks: whatever a hook returns, the message it was handed
// — header and payload bytes — must be untouched, because the
// runtimes' payloads alias the sender's encode scratch.
func TestTampersNeverAliasCallerState(t *testing.T) {
	makeMsg := func() *wire.Message {
		v := wire.NewView(0, 4)
		v.Mask.Add(0)
		v.Mask.Add(1)
		v.Vals = []int64{3, 9}
		payload, err := wire.EncodeFTExchange(wire.FTExchangePayload{Keys: []int64{3, 9}, View: v})
		if err != nil {
			t.Fatal(err)
		}
		return &wire.Message{Kind: wire.KindFTExchange, From: 0, To: 1, Stage: 2, Iter: 1, Payload: payload}
	}
	pristine := makeMsg()

	check := func(name string, hook func(*wire.Message) *wire.Message, calls int) {
		m := makeMsg()
		for i := 0; i < calls; i++ {
			hook(m)
			if m.Kind != pristine.Kind || m.Stage != pristine.Stage || m.Iter != pristine.Iter ||
				m.From != pristine.From || m.To != pristine.To {
				t.Fatalf("%s call %d mutated the caller's header: %+v", name, i, m)
			}
			if !bytes.Equal(m.Payload, pristine.Payload) {
				t.Fatalf("%s call %d mutated the caller's payload", name, i)
			}
		}
	}

	for _, st := range AllStrategies() {
		spec := Spec{Node: 0, Strategy: st, ActivateStage: 1, LieValue: 999}
		check(st.String(), spec.Tamper(), 4)
	}
	// Enough calls to hit every Random mutation arm.
	check("random", Spec{Node: 0, Strategy: Random, ActivateStage: 1, LieValue: 7}.Tamper(), 64)
	check("snr-tamper", snrTamper(Spec{Node: 0, Strategy: KeyLie, ActivateStage: 1, LieValue: 5}), 4)
}

// TestRandomAdversaryReturnsDistinctClones checks that mutating arms
// return a message whose payload does not share storage with the
// input.
func TestRandomAdversaryReturnsDistinctClones(t *testing.T) {
	adv := randomAdversary(7, 1)
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	mutated := 0
	for i := 0; i < 64; i++ {
		m := &wire.Message{Kind: wire.KindFTExchange, Stage: 2, Iter: 1,
			Payload: append([]byte(nil), payload...)}
		out := adv(m)
		if out == nil || out == m {
			continue
		}
		mutated++
		if len(out.Payload) > 0 && len(m.Payload) > 0 && &out.Payload[0] == &m.Payload[0] {
			t.Fatalf("call %d returned a clone sharing payload storage", i)
		}
	}
	if mutated == 0 {
		t.Fatal("adversary never mutated in 64 calls")
	}
}
