package wire

import (
	"fmt"
	"testing"

	"repro/internal/bitset"
)

func benchView(slots, known int) View {
	v := NewView(0, slots)
	for i := 0; i < known; i++ {
		v.Mask.Add(i)
		v.Vals = append(v.Vals, int64(i)*3)
	}
	return v
}

func BenchmarkEncodeFTExchange(b *testing.B) {
	for _, slots := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			p := FTExchangePayload{Keys: []int64{1, 2}, View: benchView(slots, slots)}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := EncodeFTExchange(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDecodeFTExchange(b *testing.B) {
	for _, slots := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("slots=%d", slots), func(b *testing.B) {
			p := FTExchangePayload{Keys: []int64{1, 2}, View: benchView(slots, slots)}
			buf, err := EncodeFTExchange(p)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeFTExchange(buf); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkMessageRoundTrip(b *testing.B) {
	m := Message{Kind: KindFTExchange, From: 1, To: 2, Stage: 3, Iter: 1,
		Payload: make([]byte, 256)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, err := Encode(m)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBitsetOps(b *testing.B) {
	x := bitset.New(1024)
	y := bitset.New(1024)
	for i := 0; i < 1024; i += 3 {
		x.Add(i)
	}
	for i := 0; i < 1024; i += 5 {
		y.Add(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := x.Clone()
		if err := c.UnionWith(y); err != nil {
			b.Fatal(err)
		}
		_ = c.Count()
	}
}

// The per-key kernels of a large job's hops, at block lengths m = 64
// and 1,024, with values where a frame puts them: an FT-exchange
// view's values start at 5 mod 8 from the frame's start.

// digestSink keeps the benchmarked digests live.
var digestSink Digest

func BenchmarkAppendVals(b *testing.B) {
	for _, m := range []int{64, 1024} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			keys := codecKeys(m, 1)
			buf := make([]byte, 5, 5+8*m)
			b.SetBytes(int64(8 * m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendVals(buf[:5], keys)
			}
		})
	}
}

func BenchmarkFrameViewBlock(b *testing.B) {
	for _, m := range []int{64, 1024} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			v := NewBlockView(0, 2, m)
			v.Mask.Add(0)
			v.Mask.Add(1)
			v.Vals = codecKeys(2*m, 1)
			fv, _ := receivedView(b, KindFTExchange, v)
			dst := make([]int64, m)
			b.SetBytes(int64(8 * m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				digestSink = fv.Block(i&1, dst)
			}
		})
	}
}

func BenchmarkDigestOf(b *testing.B) {
	for _, m := range []int{64, 1024} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			keys := codecKeys(m, 1)
			b.SetBytes(int64(8 * m))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				digestSink = DigestOf(keys)
			}
		})
	}
}
