package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/wire"
)

// cloneMessage returns a deep copy of m — header and payload bytes —
// so tamper hooks can mutate freely without aliasing caller state.
// The runtimes hand hooks a pointer whose payload aliases the sender's
// encode scratch, so a hook that wrote through the pointer would
// corrupt the node it is pretending to be.
func cloneMessage(m *wire.Message) *wire.Message {
	c := *m
	if m.Payload != nil {
		c.Payload = append([]byte(nil), m.Payload...)
	}
	return &c
}

// withPayload returns a copy of m's header carrying the given freshly
// encoded payload — the cheap clone for tampers that re-encode.
func withPayload(m *wire.Message, payload []byte) *wire.Message {
	c := *m
	c.Payload = payload
	return &c
}

// randomAdversary builds the Random strategy's tamper hook: for every
// outgoing message past the activation stage it picks, at random, one
// of several structured or unstructured mutations — key substitution,
// view-value substitution, raw byte corruption, header re-stamping,
// occasional silence, or passing the message through. Instead of
// testing attacks we thought of, it searches the attack space.
// Deterministic for a given seed. Mutations are applied to a clone:
// the caller's message is never written through.
func randomAdversary(seed int64, activateStage int) func(m *wire.Message) *wire.Message {
	rng := rand.New(rand.NewSource(seed))
	return func(m *wire.Message) *wire.Message {
		if int(m.Stage) < activateStage {
			return m
		}
		switch rng.Intn(8) {
		case 0: // pass through (intermittent faults are the nastiest)
			return m
		case 1: // silence
			return nil
		case 2: // flip a random payload byte
			if len(m.Payload) == 0 {
				return m
			}
			c := cloneMessage(m)
			c.Payload[rng.Intn(len(c.Payload))] ^= byte(1 + rng.Intn(255))
			return c
		case 3: // re-stamp the header to a random step
			c := cloneMessage(m)
			c.Stage = int32(rng.Intn(4))
			c.Iter = int32(rng.Intn(4))
			return c
		case 4: // swap kind
			kinds := []wire.Kind{wire.KindExchange, wire.KindFTExchange, wire.KindVerify}
			c := cloneMessage(m)
			c.Kind = kinds[rng.Intn(len(kinds))]
			return c
		default: // structured value lies
			return rewrite(m, true, func(_ *wire.Message, keys []int64, v *wire.View) bool {
				if len(keys) > 0 && rng.Intn(2) == 0 {
					keys[rng.Intn(len(keys))] = rng.Int63n(2000) - 1000
				}
				if len(v.Vals) > 0 {
					v.Vals[rng.Intn(len(v.Vals))] = rng.Int63n(2000) - 1000
				}
				return true
			})
		}
	}
}

// AdversarySearch runs `trials` randomized single-adversary attacks
// (the Random strategy at a random node, each trial with its own seed)
// against S_FT and returns the verdict tally. Any SilentWrong is a
// counterexample to the fail-stop guarantee and is reported with its
// reproduction seed.
func AdversarySearch(dim int, keys []int64, trials int, seed int64) (Summary, []int64, error) {
	n := 1 << uint(dim)
	rng := rand.New(rand.NewSource(seed))
	sets := make([]Set, trials)
	for i := range sets {
		trialSeed := rng.Int63()
		sets[i] = Set{{Msg: &Spec{Node: rng.Intn(n), Strategy: Random, ActivateStage: 1, LieValue: trialSeed}}}
	}
	results, err := injectAll(dim, keys, 1, sets)
	if err != nil {
		return Summary{}, nil, fmt.Errorf("fault: adversary search: %w", err)
	}
	var counterexamples []int64
	for i, r := range results {
		if r.Verdict == SilentWrong {
			counterexamples = append(counterexamples, sets[i][0].Msg.LieValue)
		}
	}
	return Summarize(results), counterexamples, nil
}
