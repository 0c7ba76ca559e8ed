package core

import (
	"encoding/binary"
	"slices"
	"testing"

	"repro/internal/wire"
)

// corruptOnce returns a Tamper hook that applies edit to the payload
// bytes of the first message of the given kind a node sends with the
// given stage label, and leaves every other message alone.
func corruptOnce(kind wire.Kind, stage int32, edit func(p []byte) []byte) func(m *wire.Message) *wire.Message {
	done := false
	return func(m *wire.Message) *wire.Message {
		if done || m.Kind != kind || m.Stage != stage {
			return m
		}
		done = true
		c := *m
		c.Payload = edit(slices.Clone(m.Payload))
		return &c
	}
}

// viewAt returns the offset of the view in an FT-exchange payload.
func viewAt(p []byte) int { return 4 + 8*int(binary.LittleEndian.Uint32(p)) }

// TestUndecodableAndMalformedViewEvidence pins the ERROR detail an
// honest receiver raises against a sender whose view does not decode,
// is malformed, or does not fit the receiver's view, byte for byte, in
// an exchange and in the verification round (stage label = cube
// dimension): decoding views in place kept every check, and every
// message, of the copying decoder.
func TestUndecodableAndMalformedViewEvidence(t *testing.T) {
	const m = 2
	for _, tc := range []struct {
		name  string
		kind  wire.Kind
		stage int32
		edit  func(p []byte) []byte
		want  string
	}{
		{"truncated exchange", wire.KindFTExchange, 1, func(p []byte) []byte { return p[:len(p)-3] },
			"undecodable exchange from 1: wire: view claims 4 values beyond buffer: wire: truncated message"},
		{"trailing bytes", wire.KindFTExchange, 1, func(p []byte) []byte { return append(p, 0) },
			"undecodable exchange from 1: wire: 1 trailing bytes in payload"},
		{"implausible block length", wire.KindFTExchange, 1, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[viewAt(p)+8:], 0)
			return p
		}, "undecodable exchange from 1: wire: view size 4 block 0 implausible: wire: truncated message"},
		{"mask bit beyond size", wire.KindFTExchange, 1, func(p []byte) []byte {
			p[viewAt(p)+28] |= 1 << 7
			return p
		}, "undecodable exchange from 1: wire: view mask: bitset: bits set beyond length 4"},
		{"negative base", wire.KindFTExchange, 1, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[viewAt(p):], 1<<31)
			return p
		}, "view from 1: malformed view: wire: view bounds base=-2147483648 size=4 invalid"},
		{"wrong geometry", wire.KindFTExchange, 1, func(p []byte) []byte {
			binary.LittleEndian.PutUint32(p[viewAt(p):], 4)
			return p
		}, "view from 1: view geometry [4,+4)x2 does not match subcube SC{dim=2, [0..3]} x2"},
		{"truncated verify", wire.KindVerify, 2, func(p []byte) []byte { return p[:20] },
			"undecodable verify from 1: wire: truncated message"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			keys := make([]int64, 4*m)
			for i := range keys {
				keys[i] = int64((i * 5) % 7)
			}
			opts := make([]Options, 4)
			opts[1] = Options{SkipChecks: true, Tamper: corruptOnce(tc.kind, tc.stage, tc.edit)}
			oc, err := RunBlocks(newNet(t, 2), keys, m, opts)
			if err != nil {
				t.Fatal(err)
			}
			var details []string
			for _, he := range oc.HostErrors {
				if he.Accused == 1 && he.Kind == KindValue {
					details = append(details, he.Detail)
				}
			}
			if !slices.Contains(details, tc.want) {
				t.Fatalf("no evidence against node 1 reads %q; got %q", tc.want, details)
			}
		})
	}
}
