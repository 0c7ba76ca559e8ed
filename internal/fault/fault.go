// Package fault implements the paper's Definition 3 fault classes as
// injectable behaviours: Byzantine processors (which lie maliciously
// in structured ways), Byzantine links (which corrupt, drop, or
// duplicate raw messages), and fail-stop silence. It also provides the
// coverage experiment of Section 4: sweeping strategies × fault sites
// and reporting whether the constraint predicate detected every
// corruption (the fail-stop guarantee of Theorem 3).
package fault

import (
	"fmt"
	"math/rand"

	"repro/internal/wire"
)

// Strategy enumerates Byzantine processor behaviours. Each corresponds
// to a distinct way a faulty node can attack the sort.
type Strategy int

const (
	// KeyLie substitutes a bogus value for every key the node sends.
	KeyLie Strategy = iota + 1
	// SplitLie reports a different value for the node's own view entry
	// to every receiver — the inconsistency attack Φ_C targets.
	SplitLie
	// ViewLie corrupts a relayed view entry (a lie about another
	// node's value).
	ViewLie
	// WrongCompare swaps the min/max halves of compare-exchange
	// replies, violating the schedule's direction.
	WrongCompare
	// Silence stops sending entirely (fail-stop behaviour observed by
	// peers as message absence).
	Silence
	// MaskInflation claims knowledge of view slots the exchange
	// schedule cannot have delivered yet.
	MaskInflation
	// StaleReplay re-labels messages with an earlier stage/iteration,
	// as a faulty node replaying old traffic would.
	StaleReplay
	// DigestLie corrupts the view's aggregate multiset digest while
	// leaving the relayed entries honest — the attack aimed at the
	// digest fast path itself. Receivers must notice the aggregate
	// disagreeing with the entries it summarizes.
	DigestLie
	// PermuteLie swaps the first and last relayed view entries,
	// corrupting slot attribution while preserving the multiset — so
	// the aggregate digest stays consistent with the entries and only
	// element-level evidence (held-copy conflicts, Φ_P shape) can
	// catch it.
	PermuteLie
	// Random picks, for every message past the activation stage, one
	// of several structured or unstructured mutations at random, from
	// a stream LieValue seeds: the property-based complement to the
	// named strategies, which AdversarySearch drives. Sweeps over
	// AllStrategies leave it out.
	Random
)

var strategyNames = map[Strategy]string{
	KeyLie:        "key-lie",
	SplitLie:      "split-lie",
	ViewLie:       "view-lie",
	WrongCompare:  "wrong-compare",
	Silence:       "silence",
	MaskInflation: "mask-inflation",
	StaleReplay:   "stale-replay",
	DigestLie:     "digest-lie",
	PermuteLie:    "permute-lie",
	Random:        "random",
}

// String returns the strategy's kebab-case name.
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// AllStrategies lists every Byzantine strategy, for sweeps.
func AllStrategies() []Strategy {
	return []Strategy{KeyLie, SplitLie, ViewLie, WrongCompare, Silence, MaskInflation, StaleReplay, DigestLie, PermuteLie}
}

// ByName returns the member of all whose kebab-case name is name: the
// inverse of String over AllStrategies, AllCmpModes or AllMemModes.
func ByName[T fmt.Stringer](all []T, name string) (T, bool) {
	for _, v := range all {
		if v.String() == name {
			return v, true
		}
	}
	var zero T
	return zero, false
}

// Spec describes one injected processor fault.
type Spec struct {
	// Node is the faulty node's label.
	Node int
	// Strategy is the Byzantine behaviour.
	Strategy Strategy
	// ActivateStage is the first stage at which the fault manifests.
	// Per environmental assumption 5 all nodes are non-faulty through
	// the first message exchange, so this must be >= 1 for guaranteed
	// detection semantics (0 would amount to different input data).
	ActivateStage int
	// LieValue parameterizes value-substitution strategies and seeds
	// Random's mutation stream.
	LieValue int64
}

// Validate rejects malformed specs.
func (s Spec) Validate(nodes int) error {
	if s.Node < 0 || s.Node >= nodes {
		return fmt.Errorf("fault: node %d outside [0,%d)", s.Node, nodes)
	}
	if _, ok := strategyNames[s.Strategy]; !ok {
		return fmt.Errorf("fault: unknown strategy %d", int(s.Strategy))
	}
	if s.ActivateStage < 1 {
		return fmt.Errorf("fault: activate stage %d violates assumption 5 (must be >= 1)", s.ActivateStage)
	}
	return nil
}

// Tamper builds the message-tampering hook implementing the spec.
// The hook is stateless with respect to the run and safe to use for a
// single node's outgoing traffic.
func (s Spec) Tamper() func(m *wire.Message) *wire.Message {
	verify := false // whether the lie reaches verification payloads too
	var lie edit
	switch s.Strategy {
	case KeyLie:
		lie = s.lieKeys
	case SplitLie:
		verify, lie = true, s.splitView
	case ViewLie:
		lie = s.lieRelayed
	case WrongCompare:
		lie = swapHalves
	case MaskInflation:
		lie = s.inflateMask
	case DigestLie:
		verify, lie = true, s.lieDigest
	case PermuteLie:
		verify, lie = true, permuteView
	case Silence:
		return func(m *wire.Message) *wire.Message {
			if !s.active(m) {
				return m
			}
			return nil
		}
	case Random:
		return randomAdversary(s.LieValue, s.ActivateStage)
	case StaleReplay:
		return func(m *wire.Message) *wire.Message {
			if !s.active(m) {
				return m
			}
			c := cloneMessage(m)
			c.Stage = 0
			c.Iter = 0
			return c
		}
	default:
		return func(m *wire.Message) *wire.Message { return m }
	}
	return func(m *wire.Message) *wire.Message {
		if !s.active(m) {
			return m
		}
		return rewrite(m, verify, lie)
	}
}

func (s Spec) active(m *wire.Message) bool {
	return int(m.Stage) >= s.ActivateStage
}

// edit changes the decoded payload of m in place: the keys and view of
// an exchange, or the view of a verification message (keys nil). It
// reports whether the payload is to be re-encoded.
type edit func(m *wire.Message, keys []int64, v *wire.View) bool

// rewrite decodes m's exchange payload (and, with verify, its
// verification payload), applies e, and returns a copy of m's header
// carrying the re-encoded payload. A message of another kind, an
// undecodable payload, an edit reporting false, or a failed encode
// returns m itself.
func rewrite(m *wire.Message, verify bool, e edit) *wire.Message {
	var buf []byte
	var err error
	switch {
	case m.Kind == wire.KindFTExchange:
		p, derr := wire.DecodeFTExchange(m.Payload)
		if derr != nil || !e(m, p.Keys, &p.View) {
			return m
		}
		buf, err = wire.EncodeFTExchange(p)
	case verify && m.Kind == wire.KindVerify:
		p, derr := wire.DecodeVerify(m.Payload)
		if derr != nil || !e(m, nil, &p.View) {
			return m
		}
		buf, err = wire.EncodeVerify(p)
	default:
		return m
	}
	if err != nil {
		return m
	}
	return withPayload(m, buf)
}

// lieKeys substitutes the lie value for every key sent.
func (s Spec) lieKeys(_ *wire.Message, keys []int64, _ *wire.View) bool {
	for i := range keys {
		keys[i] = s.LieValue
	}
	return true
}

// splitView reports the node's own view slot as a value that differs
// per receiver.
func (s Spec) splitView(m *wire.Message, _ []int64, v *wire.View) bool {
	slot := s.Node - int(v.Base)
	changed := false
	for i, idx := range v.Mask.Indices() {
		if idx == slot {
			b := v.Block(i)
			for k := range b {
				b[k] = s.LieValue + int64(m.To) // differs per receiver
			}
			changed = true
		}
	}
	return changed
}

// lieRelayed corrupts the last relayed view entry — typically another
// node's.
func (s Spec) lieRelayed(_ *wire.Message, _ []int64, v *wire.View) bool {
	if len(v.Vals) == 0 {
		return false
	}
	v.Vals[len(v.Vals)-1] = s.LieValue
	return true
}

// swapHalves swaps the min and max halves of a compare-exchange reply.
func swapHalves(_ *wire.Message, keys []int64, _ *wire.View) bool {
	if len(keys) < 2 || len(keys)%2 != 0 {
		return false
	}
	half := len(keys) / 2
	for i := 0; i < half; i++ {
		keys[i], keys[half+i] = keys[half+i], keys[i]
	}
	return true
}

// inflateMask claims the first view slot the schedule has not yet
// delivered, filled with the lie value.
func (s Spec) inflateMask(_ *wire.Message, _ []int64, v *wire.View) bool {
	for i := 0; i < int(v.Size); i++ {
		if v.Mask.Has(i) {
			continue
		}
		v.Mask.Add(i)
		idxs := v.Mask.Indices()
		bl := int(v.BlockLen)
		vals := make([]int64, 0, len(idxs)*bl)
		vi := 0
		for _, idx := range idxs {
			if idx == i {
				for k := 0; k < bl; k++ {
					vals = append(vals, s.LieValue)
				}
				continue
			}
			vals = append(vals, v.Vals[vi*bl:(vi+1)*bl]...)
			vi++
		}
		v.Vals = vals
		break
	}
	return true
}

// lieDigest corrupts the view's aggregate digest, leaving the entries
// honest.
func (s Spec) lieDigest(_ *wire.Message, _ []int64, v *wire.View) bool {
	v.Dig.Sum += uint64(s.LieValue)*2 + 1 // always changes Sum
	v.Dig.Xor ^= wire.MixKey(s.LieValue) | 1
	return true
}

// permuteView swaps the first and last relayed view entries.
func permuteView(_ *wire.Message, _ []int64, v *wire.View) bool {
	n := len(v.Vals)
	bl := int(v.BlockLen)
	if n < 2*bl {
		return false // fewer than two relayed slots
	}
	differ := false
	for k := 0; k < bl; k++ {
		if v.Vals[k] != v.Vals[n-bl+k] {
			differ = true
		}
		v.Vals[k], v.Vals[n-bl+k] = v.Vals[n-bl+k], v.Vals[k]
	}
	return differ // a swap of identical entries is no lie
}

// --- link faults -----------------------------------------------------------

// LinkCorrupt flips Bits pseudo-random bits of every passing message,
// implementing a Byzantine link. It is deterministic given Seed.
type LinkCorrupt struct {
	rng  *rand.Rand
	bits int
}

// NewLinkCorrupt returns a corruptor flipping bits random bits per message.
func NewLinkCorrupt(seed int64, bits int) *LinkCorrupt {
	if bits < 1 {
		bits = 1
	}
	return &LinkCorrupt{rng: rand.New(rand.NewSource(seed)), bits: bits}
}

// Apply implements simnet.LinkFault.
func (c *LinkCorrupt) Apply(raw []byte) [][]byte {
	out := make([]byte, len(raw))
	copy(out, raw)
	for i := 0; i < c.bits && len(out) > 0; i++ {
		pos := c.rng.Intn(len(out))
		out[pos] ^= 1 << uint(c.rng.Intn(8))
	}
	return [][]byte{out}
}

// LinkDrop drops every message after the first Keep messages,
// modelling a link that dies mid-run.
type LinkDrop struct {
	Keep int
	seen int
}

// Apply implements simnet.LinkFault.
func (d *LinkDrop) Apply(raw []byte) [][]byte {
	d.seen++
	if d.seen > d.Keep {
		return nil
	}
	return [][]byte{raw}
}

// LinkDuplicate delivers every message twice — a babbling link.
type LinkDuplicate struct{}

// Apply implements simnet.LinkFault.
func (LinkDuplicate) Apply(raw []byte) [][]byte { return [][]byte{raw, raw} }
