package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/checker"
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
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5} // Figure 5 input
	oc, err := Run(newNet(t, 3), keys)
	if err != nil {
		t.Fatal(err)
	}
	if oc.Detected() {
		t.Fatalf("fault detected on honest run: nodes=%v host=%v", oc.Result.FirstNodeErr(), oc.HostErrors)
	}
	want := []int64{2, 3, 4, 5, 7, 8, 9, 10}
	for i := range want {
		if oc.Sorted[i] != want[i] {
			t.Fatalf("sorted = %v, want %v", oc.Sorted, want)
		}
	}
}

func TestSortsAllDims(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for dim := 0; dim <= 5; dim++ {
		n := 1 << uint(dim)
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(1000) - 500)
		}
		oc, err := Run(newNet(t, dim), keys)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		if oc.Detected() {
			t.Fatalf("dim %d: spurious detection: %v %v", dim, oc.Result.FirstNodeErr(), oc.HostErrors)
		}
		if err := checker.Verify(keys, oc.Sorted, true); err != nil {
			t.Fatalf("dim %d: %v (out=%v)", dim, err, oc.Sorted)
		}
	}
}

func TestSortsDuplicatesAndExtremes(t *testing.T) {
	cases := [][]int64{
		{7, 7, 7, 7, 7, 7, 7, 7},
		{1, 1, 2, 2, 1, 1, 2, 2},
		{-(1 << 62), 1 << 62, 0, -1, 5, -5, 100, -100},
		{8, 7, 6, 5, 4, 3, 2, 1},
		{1, 2, 3, 4, 5, 6, 7, 8},
	}
	for _, keys := range cases {
		oc, err := Run(newNet(t, 3), keys)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Detected() {
			t.Fatalf("keys %v: spurious detection", keys)
		}
		if err := checker.Verify(keys, oc.Sorted, true); err != nil {
			t.Fatalf("keys %v: %v (out=%v)", keys, err, oc.Sorted)
		}
	}
}

func TestSortRandomProperty(t *testing.T) {
	f := func(raw [16]int32) bool {
		keys := make([]int64, 16)
		for i, v := range raw {
			keys[i] = int64(v)
		}
		oc, err := Run(newNet(t, 4), keys)
		if err != nil || oc.Detected() {
			return false
		}
		return checker.Verify(keys, oc.Sorted, true) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRunValidation(t *testing.T) {
	nw := newNet(t, 2)
	if _, err := Run(nw, []int64{1}); err == nil {
		t.Error("1 key for 4 nodes: want error")
	}
	if _, err := RunWithOptions(nw, []int64{1, 2, 3, 4}, make([]Options, 2)); err == nil {
		t.Error("2 option sets for 4 nodes: want error")
	}
}

// Message count must equal S_NR's schedule plus the final verification
// round: the checks ride along, they do not add messages to the main
// loop (the paper's headline overhead claim).
func TestMessageCountMatchesSNRPlusVerify(t *testing.T) {
	dim := 4
	n := 1 << uint(dim)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(n - i)
	}
	oc, err := Run(newNet(t, dim), keys)
	if err != nil {
		t.Fatal(err)
	}
	steps := dim * (dim + 1) / 2
	wantMain := int64(n * steps) // identical to S_NR
	if got := oc.Result.Metrics.MsgsByKind[wire.KindFTExchange]; got != wantMain {
		t.Errorf("ft-exchange msgs = %d, want %d", got, wantMain)
	}
	wantVerify := int64(n * dim)
	if got := oc.Result.Metrics.MsgsByKind[wire.KindVerify]; got != wantVerify {
		t.Errorf("verify msgs = %d, want %d", got, wantVerify)
	}
}

// S_FT messages are longer than S_NR's — the cost the paper accepts.
func TestBytesExceedSNR(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i * 3 % n)
	}
	oc, err := Run(newNet(t, dim), keys)
	if err != nil {
		t.Fatal(err)
	}
	ftBytes := oc.Result.Metrics.BytesByKind[wire.KindFTExchange]
	ftMsgs := oc.Result.Metrics.MsgsByKind[wire.KindFTExchange]
	if ftBytes/ftMsgs < 40 {
		t.Errorf("average S_FT message only %d bytes; views not piggybacked?", ftBytes/ftMsgs)
	}
}

// tamperKeys replaces every key in FT-exchange payloads after the
// given stage with the supplied value.
func tamperKeys(afterStage int, value int64) func(m *wire.Message) *wire.Message {
	return func(m *wire.Message) *wire.Message {
		if int(m.Stage) <= afterStage || m.Kind != wire.KindFTExchange {
			return m
		}
		p, err := wire.DecodeFTExchange(m.Payload)
		if err != nil {
			return m
		}
		for i := range p.Keys {
			p.Keys[i] = value
		}
		buf, err := wire.EncodeFTExchange(p)
		if err != nil {
			return m
		}
		m.Payload = buf
		return m
	}
}

func TestByzantineKeyLieDetected(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	opts := make([]Options, n)
	opts[5] = Options{SkipChecks: true, Tamper: tamperKeys(0, 999)}
	oc, err := RunWithOptions(newNet(t, dim), keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatalf("Byzantine key lie went undetected; output %v", oc.Sorted)
	}
}

func TestByzantineViewLieDetected(t *testing.T) {
	// Corrupt a relayed view entry (a lie about ANOTHER node's value).
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	opts := make([]Options, n)
	opts[2] = Options{SkipChecks: true, Tamper: func(m *wire.Message) *wire.Message {
		if m.Kind != wire.KindFTExchange || m.Stage < 1 {
			return m
		}
		p, err := wire.DecodeFTExchange(m.Payload)
		if err != nil || len(p.View.Vals) == 0 {
			return m
		}
		p.View.Vals[len(p.View.Vals)-1] = -777
		buf, err := wire.EncodeFTExchange(p)
		if err != nil {
			return m
		}
		m.Payload = buf
		return m
	}}
	oc, err := RunWithOptions(newNet(t, dim), keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatalf("Byzantine view lie went undetected; output %v", oc.Sorted)
	}
}

func TestByzantineSplitLieDetected(t *testing.T) {
	// The canonical Φ_C attack: tell different neighbors different
	// values for your own entry.
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	opts := make([]Options, n)
	faulty := 6
	opts[faulty] = Options{SkipChecks: true, Tamper: func(m *wire.Message) *wire.Message {
		if m.Kind != wire.KindFTExchange || m.Stage < 1 {
			return m
		}
		p, err := wire.DecodeFTExchange(m.Payload)
		if err != nil {
			return m
		}
		// Lie about our own view slot, differently per receiver.
		slot := faulty - int(p.View.Base)
		vi := 0
		for _, idx := range p.View.Mask.Indices() {
			if idx == slot {
				p.View.Vals[vi] = 500 + int64(m.To)
			}
			vi++
		}
		buf, err := wire.EncodeFTExchange(p)
		if err != nil {
			return m
		}
		m.Payload = buf
		return m
	}}
	oc, err := RunWithOptions(newNet(t, dim), keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatalf("split lie went undetected; output %v", oc.Sorted)
	}
}

func TestByzantineSilenceDetected(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	opts := make([]Options, n)
	opts[3] = Options{SkipChecks: true, Tamper: func(m *wire.Message) *wire.Message {
		if m.Stage >= 1 {
			return nil
		}
		return m
	}}
	oc, err := RunWithOptions(newNet(t, dim), keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatal("silence went undetected")
	}
}

func TestByzantineWrongCompareExchangeDetected(t *testing.T) {
	// A node whose comparator lies routes real keys the wrong way: no
	// message is tampered, the node faithfully reports its wrong
	// answers, and detection must come from its honest peers'
	// predicates. The table covers both lie directions and a lie
	// confined to the last merge stage, where only the final
	// verification round is left to catch it.
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	cases := []struct {
		name    string
		faulty  int
		compare func(stage int, a, b int64) bool
	}{
		{
			// Claims a <= b whenever the truth is a > b.
			name:   "lie-low",
			faulty: 0,
			compare: func(stage int, a, b int64) bool {
				return true
			},
		},
		{
			// Claims a > b whenever the truth is a <= b.
			name:   "lie-high",
			faulty: 0,
			compare: func(stage int, a, b int64) bool {
				return false
			},
		},
		{
			// Honest until the last merge stage, then inverts every
			// answer: only the final verification round remains.
			name:   "final-stage",
			faulty: 5,
			compare: func(stage int, a, b int64) bool {
				if stage < dim-1 {
					return a <= b
				}
				return a > b
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := make([]Options, n)
			opts[tc.faulty] = Options{SkipChecks: true, Compare: tc.compare}
			oc, err := RunWithOptions(newNet(t, dim), keys, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !oc.Detected() {
				t.Fatalf("lying comparator went undetected; output %v", oc.Sorted)
			}
		})
	}
}

func TestByzantineMaskInflationDetected(t *testing.T) {
	// Claim knowledge the schedule does not entitle the sender to.
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	opts := make([]Options, n)
	opts[1] = Options{SkipChecks: true, Tamper: func(m *wire.Message) *wire.Message {
		if m.Kind != wire.KindFTExchange || m.Stage < 1 {
			return m
		}
		p, err := wire.DecodeFTExchange(m.Payload)
		if err != nil {
			return m
		}
		// Add a fabricated entry for an unknown slot, if any remain.
		for i := 0; i < int(p.View.Size); i++ {
			if !p.View.Mask.Has(i) {
				p.View.Mask.Add(i)
				// Insert the value keeping slot order.
				idxs := p.View.Mask.Indices()
				vals := make([]int64, 0, len(idxs))
				vi := 0
				for _, idx := range idxs {
					if idx == i {
						vals = append(vals, -1)
					} else {
						vals = append(vals, p.View.Vals[vi])
						vi++
					}
				}
				p.View.Vals = vals
				break
			}
		}
		buf, err := wire.EncodeFTExchange(p)
		if err != nil {
			return m
		}
		m.Payload = buf
		return m
	}}
	oc, err := RunWithOptions(newNet(t, dim), keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatal("mask inflation went undetected")
	}
}

func TestHostReceivesErrorSignal(t *testing.T) {
	dim := 2
	n := 1 << uint(dim)
	keys := []int64{4, 3, 2, 1}
	opts := make([]Options, n)
	opts[2] = Options{SkipChecks: true, Tamper: tamperKeys(0, -42)}
	oc, err := RunWithOptions(newNet(t, dim), keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(oc.HostErrors) == 0 {
		t.Fatal("no ERROR signal reached the host")
	}
	he := oc.HostErrors[0]
	if he.Predicate == "" || he.Detail == "" {
		t.Fatalf("empty diagnostic: %+v", he)
	}
	if he.Node == 2 {
		t.Fatalf("the faulty node itself reported the error: %+v", he)
	}
}

// The fail-stop guarantee (Theorem 3): across many random single-fault
// runs, the system must never complete silently with a wrong output.
func TestNeverSilentlyWrong(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	dim := 3
	n := 1 << uint(dim)
	for trial := 0; trial < 15; trial++ {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(rng.Intn(40))
		}
		faulty := rng.Intn(n)
		lie := int64(rng.Intn(2000) - 1000)
		afterStage := rng.Intn(dim - 1)
		opts := make([]Options, n)
		opts[faulty] = Options{SkipChecks: true, Tamper: tamperKeys(afterStage, lie)}
		oc, err := RunWithOptions(newNet(t, dim), keys, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !oc.Detected() {
			// Permitted only if the output is actually correct (the
			// lie may coincide with true values).
			if verr := checker.Verify(keys, oc.Sorted, true); verr != nil {
				t.Fatalf("trial %d: silent wrong output: faulty=%d lie=%d after=%d out=%v keys=%v",
					trial, faulty, lie, afterStage, oc.Sorted, keys)
			}
		}
	}
}

func TestDimZeroTrivial(t *testing.T) {
	oc, err := Run(newNet(t, 0), []int64{42})
	if err != nil {
		t.Fatal(err)
	}
	if oc.Detected() || oc.Sorted[0] != 42 {
		t.Fatalf("outcome %+v", oc)
	}
}

func TestDimOneDetectsFinalLie(t *testing.T) {
	// With N=2 the main loop is one stage; detection rides on the
	// final verification round.
	keys := []int64{9, 1}
	opts := make([]Options, 2)
	opts[1] = Options{SkipChecks: true, Tamper: func(m *wire.Message) *wire.Message {
		if m.Kind != wire.KindVerify {
			return m
		}
		p, err := wire.DecodeVerify(m.Payload)
		if err != nil || len(p.View.Vals) == 0 {
			return m
		}
		p.View.Vals[len(p.View.Vals)-1] = 555
		buf, err := wire.EncodeVerify(p)
		if err != nil {
			return m
		}
		m.Payload = buf
		return m
	}}
	oc, err := RunWithOptions(newNet(t, 1), keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !oc.Detected() {
		t.Fatalf("final-stage lie went undetected; output %v", oc.Sorted)
	}
}
