package core

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/wire"
)

// withFlag returns n option sets with the given ablation applied to
// every honest node and the Byzantine spec at one node.
func ablationOpts(n int, apply func(*Options), faulty int, tamper func(*wire.Message) *wire.Message) []Options {
	opts := make([]Options, n)
	for id := range opts {
		if apply != nil {
			apply(&opts[id])
		}
		if id == faulty {
			opts[id].SkipChecks = true
			opts[id].Tamper = tamper
		}
	}
	return opts
}

// finalStageLie makes the node, when it is the passive party of a
// non-first iteration of the LAST main-loop stage, lie about its
// current key. The inline protocol checks cannot see this (the
// key-vs-view cross-check only applies at a stage's first iteration),
// the stage-end checks only cover earlier stages' outputs, so the lie
// corrupts the final output and only the final pure-exchange
// verification can catch it.
func finalStageLie(dim int, bogus int64) func(m *wire.Message) *wire.Message {
	return func(m *wire.Message) *wire.Message {
		if m.Kind != wire.KindFTExchange || int(m.Stage) != dim-1 || int(m.Iter) >= dim-1 {
			return m
		}
		p, err := wire.DecodeFTExchange(m.Payload)
		if err != nil || len(p.Keys) != 1 {
			return m // only the passive (1-key) leg
		}
		p.Keys[0] = bogus
		buf, err := wire.EncodeFTExchange(p)
		if err != nil {
			return m
		}
		m.Payload = buf
		return m
	}
}

// The final verification round is load-bearing: with it, a last-stage
// lie is detected; without it (ablated), the same lie produces a
// silently wrong output.
func TestAblationFinalVerificationIsLoadBearing(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	faulty := 3 // passive at iterations 0 and 1 of the last stage

	// Baseline: detected.
	base, err := RunWithOptions(newNet(t, dim), keys,
		ablationOpts(n, nil, faulty, finalStageLie(dim, 777)))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Detected() {
		t.Fatalf("baseline failed to detect final-stage lie; out=%v", base.Sorted)
	}

	// Ablated: the lie slips through as silent corruption.
	ablated, err := RunWithOptions(newNet(t, dim), keys,
		ablationOpts(n, func(o *Options) { o.SkipFinalVerification = true }, faulty, finalStageLie(dim, 777)))
	if err != nil {
		t.Fatal(err)
	}
	if ablated.Detected() {
		t.Fatalf("ablated run still detected: %v %v — attack needs sharpening",
			ablated.Result.FirstNodeErr(), ablated.HostErrors)
	}
	if checker.Verify(keys, ablated.Sorted, true) == nil {
		t.Fatalf("ablated run produced a correct sort; the lie had no effect (out=%v)", ablated.Sorted)
	}
}

// Honest runs still succeed under every ablation (the switches remove
// checks, they do not break the protocol).
func TestAblationsPreserveHonestRuns(t *testing.T) {
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	cases := []struct {
		name  string
		apply func(*Options)
	}{
		{"trust-sender-masks", func(o *Options) { o.TrustSenderMasks = true }},
		{"skip-final-verification", func(o *Options) { o.SkipFinalVerification = true }},
		{"separate-check-messages", func(o *Options) { o.SeparateCheckMessages = true }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			oc, err := RunWithOptions(newNet(t, 3), keys, ablationOpts(8, tc.apply, -1, nil))
			if err != nil {
				t.Fatal(err)
			}
			if oc.Detected() {
				t.Fatalf("spurious detection: %v %v", oc.Result.FirstNodeErr(), oc.HostErrors)
			}
			if err := checker.Verify(keys, oc.Sorted, true); err != nil {
				t.Fatalf("%v (out=%v)", err, oc.Sorted)
			}
		})
	}
}

// Separate check messages double the main-loop message count — the
// overhead the paper's piggybacking design avoids.
func TestAblationSeparateMessagesDoubleCount(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	steps := int64(dim * (dim + 1) / 2)

	base, err := RunWithOptions(newNet(t, dim), keys, nil)
	if err != nil {
		t.Fatal(err)
	}
	piggy := base.Result.Metrics.MsgsByKind[wire.KindFTExchange]
	if piggy != int64(n)*steps {
		t.Fatalf("baseline main-loop msgs = %d", piggy)
	}

	abl, err := RunWithOptions(newNet(t, dim), keys,
		ablationOpts(n, func(o *Options) { o.SeparateCheckMessages = true }, -1, nil))
	if err != nil {
		t.Fatal(err)
	}
	if abl.Detected() {
		t.Fatal(abl.Result.FirstNodeErr())
	}
	sepKeys := abl.Result.Metrics.MsgsByKind[wire.KindExchange]
	sepViews := abl.Result.Metrics.MsgsByKind[wire.KindVerify] - int64(n*dim) // minus final round
	if sepKeys != piggy || sepViews != piggy {
		t.Errorf("separate-mode msgs: keys=%d views=%d, want %d each", sepKeys, sepViews, piggy)
	}
	if abl.Result.Makespan() <= base.Result.Makespan() {
		t.Errorf("separate mode makespan %d not above piggybacked %d",
			abl.Result.Makespan(), base.Result.Makespan())
	}
}

// With TrustSenderMasks, a mask-inflation attack is no longer rejected
// at merge time — but the fabricated value still collides with the
// true copy later, so detection happens via a different (later) check.
// The ablation shows mask validation buys early, attributable
// detection; removing it degrades diagnosis, not safety.
func TestAblationTrustMasksDelaysButDetects(t *testing.T) {
	dim := 3
	n := 1 << uint(dim)
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	tamper := func(m *wire.Message) *wire.Message {
		if m.Kind != wire.KindFTExchange || m.Stage < 1 {
			return m
		}
		p, err := wire.DecodeFTExchange(m.Payload)
		if err != nil {
			return m
		}
		for i := 0; i < int(p.View.Size); i++ {
			if !p.View.Mask.Has(i) {
				p.View.Mask.Add(i)
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
	}

	base, err := RunWithOptions(newNet(t, dim), keys, ablationOpts(n, nil, 1, tamper))
	if err != nil {
		t.Fatal(err)
	}
	if !base.Detected() {
		t.Fatal("baseline failed to detect mask inflation")
	}
	baseConsistency := false
	for _, he := range base.HostErrors {
		if he.Predicate == "consistency" {
			baseConsistency = true
		}
	}
	if !baseConsistency {
		t.Errorf("baseline detection not attributed to consistency: %v", base.HostErrors)
	}

	abl, err := RunWithOptions(newNet(t, dim), keys,
		ablationOpts(n, func(o *Options) { o.TrustSenderMasks = true }, 1, tamper))
	if err != nil {
		t.Fatal(err)
	}
	if !abl.Detected() {
		if cerr := checker.Verify(keys, abl.Sorted, true); cerr != nil {
			t.Fatalf("trusting masks made corruption silent: %v", cerr)
		}
		t.Fatal("trusting masks made the attack invisible and harmless — unexpected for this tamper")
	}
}
