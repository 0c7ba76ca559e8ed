package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/hypercube"
	"repro/internal/wire"
)

// stagedView is the view a send carried before the runner encoded
// straight from its arena: the held blocks copied out in slot order,
// with the aggregate digest folded from their index-bound slot
// digests.
func stagedView(g *blockView) wire.View {
	var vals []int64
	var dig wire.Digest
	g.have.Each(func(idx int) bool {
		vals = append(vals, g.blocks[idx]...)
		dig.Merge(wire.SlotBound(idx, wire.DigestOf(g.blocks[idx])))
		return true
	})
	return wire.View{Base: int32(g.sc.Start), Size: int32(g.sc.Size()), BlockLen: int32(g.m),
		Mask: g.have, Vals: vals, Dig: dig}
}

// TestSendBodyMatchesPayloadEncoders: over random views (m = 1, 3, 64,
// random subcubes and knowledge masks), the runner's arena encoder
// writes exactly the bytes wire.AppendExchange, wire.AppendFTExchange
// and wire.AppendVerify write for the same keys and staged view, and
// Len predicts their length. A body whose keys come in two parts, the
// active side's kept and given halves, encodes as their concatenation.
func TestSendBodyMatchesPayloadEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	topo := hypercube.MustNew(6)
	for _, m := range []int{1, 3, 64} {
		for trial := 0; trial < 60; trial++ {
			sc, err := topo.HomeSubcube(rng.Intn(topo.Dim()+1), rng.Intn(topo.Nodes()))
			if err != nil {
				t.Fatal(err)
			}
			g := newBlockView(sc, m)
			held := rng.Float64()
			for slot := 0; slot < sc.Size(); slot++ {
				if rng.Float64() < held {
					b := make([]int64, m)
					for k := range b {
						b[k] = rng.Int63n(1<<40) - 1<<39
					}
					g.set(sc.Start+slot, b)
				}
			}
			keys := make([]int64, 2*m)
			for k := range keys {
				keys[k] = rng.Int63()
			}
			v := stagedView(g)
			ft, err := wire.AppendFTExchange(nil, wire.FTExchangePayload{Keys: keys, View: v})
			if err != nil {
				t.Fatal(err)
			}
			verify, err := wire.AppendVerify(nil, wire.VerifyPayload{View: v})
			if err != nil {
				t.Fatal(err)
			}
			cut := rng.Intn(len(keys) + 1)
			for _, tc := range []struct {
				kind wire.Kind
				keys [2][]int64
				want []byte
			}{
				{wire.KindExchange, [2][]int64{keys}, wire.AppendExchange(nil, keys)},
				{wire.KindFTExchange, [2][]int64{keys}, ft},
				{wire.KindFTExchange, [2][]int64{keys[:cut], keys[cut:]}, ft},
				{wire.KindExchange, [2][]int64{keys[:cut], keys[cut:]}, wire.AppendExchange(nil, keys)},
				{wire.KindVerify, [2][]int64{}, verify},
			} {
				body := sendBody{kind: tc.kind, keys: tc.keys, view: g}
				got := body.AppendTo([]byte{0xAA})[1:]
				name := fmt.Sprintf("m=%d %v mask %s %v parts %d+%d", m, sc, g.have.String(), tc.kind, len(tc.keys[0]), len(tc.keys[1]))
				if !bytes.Equal(got, tc.want) {
					t.Fatalf("%s: arena encoding differs from the payload encoder's", name)
				}
				if body.Len() != len(got) {
					t.Fatalf("%s: Len = %d, encoding has %d bytes", name, body.Len(), len(got))
				}
			}
		}
	}
}
