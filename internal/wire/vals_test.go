package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// appendValsPerKey and readValsPerKey are the key codec as it was
// written before it became one copy each way: a PutUint64 and a
// Uint64 per key. They stay here as the reference the codec, on both
// its paths, is held to.
func appendValsPerKey(buf []byte, keys []int64) []byte {
	for _, k := range keys {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(k))
	}
	return buf
}

func readValsPerKey(dst []int64, src []byte) {
	for i := range dst {
		dst[i] = int64(binary.LittleEndian.Uint64(src[8*i:]))
	}
}

// digestOneLane is the digest folded one key at a time, as Add does:
// the reference for DigestOf and FrameView.Block.
func digestOneLane(keys []int64) Digest {
	var d Digest
	for _, k := range keys {
		d.Add(k)
	}
	return d
}

// codecKeys returns n keys that include both extremes and keys of
// every byte pattern, so a swapped or shifted byte shows.
func codecKeys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(rng.Uint64())
	}
	for i, k := range []int64{math.MinInt64, math.MaxInt64, -1, 0, 1} {
		if i < n {
			keys[(i*7919)%n] = k
		}
	}
	return keys
}

// TestValsCodecMatchesPerKey holds AppendVals, ReadVals and the
// per-key path a big-endian host takes to the per-key reference, for
// every length 0–4,100, over dirty buffers so a key left unwritten
// shows. The copying path runs at every offset mod 8 in the frame; the
// per-key path, whose loop reads and writes the same bytes at any
// offset, at offset n mod 8, so it meets every offset too and the test
// stays quick under -race. A decode is checked by encoding its result
// again: the encoder has just been held to the reference at that
// length and offset.
func TestValsCodecMatchesPerKey(t *testing.T) {
	const maxN = 4100
	keys := codecKeys(maxN, 1)
	want := appendValsPerKey(nil, keys)
	dirty := bytes.Repeat([]byte{0xa5}, 8+8*maxN)
	notKeys := make([]int64, maxN)
	for i, k := range keys {
		notKeys[i] = ^k
	}
	buf := make([]byte, 0, len(dirty))
	re := make([]byte, 0, len(dirty))
	dst := make([]int64, maxN)
	for n := 0; n <= maxN; n++ {
		for off := 0; off < 8; off++ {
			buf = append(buf[:0], dirty...)[:off]
			enc := AppendVals(buf, keys[:n])
			if len(enc) != off+8*n || !bytes.Equal(enc[off:], want[:8*n]) {
				t.Fatalf("n=%d off=%d: AppendVals wrote %d bytes differing from the per-key encoding", n, off, len(enc)-off)
			}
			// Decode from the offset with a trailing byte, as a frame
			// leaves more after the keys.
			src := append(enc, 0x5a)[off:]
			copy(dst, notKeys[:n])
			ReadVals(dst[:n], src)
			if !bytes.Equal(AppendVals(re[:0], dst[:n]), want[:8*n]) {
				t.Fatalf("n=%d off=%d: ReadVals decoded keys differing from the encoded ones", n, off)
			}
			if off != n%8 {
				continue
			}
			per := append(re[:0], dirty[:off+8*n]...)
			putValsPerKey(per[off:], keys[:n])
			if !bytes.Equal(per[off:], want[:8*n]) {
				t.Fatalf("n=%d off=%d: putValsPerKey differs from the per-key encoding", n, off)
			}
			copy(dst, notKeys[:n])
			getValsPerKey(dst[:n], src)
			if !bytes.Equal(AppendVals(re[:0], dst[:n]), want[:8*n]) {
				t.Fatalf("n=%d off=%d: getValsPerKey decoded keys differing from the encoded ones", n, off)
			}
		}
	}
}

// TestReadValsShortSourcePanics: ReadVals, like the per-key loop it
// replaced, refuses a source that holds fewer keys than dst instead of
// decoding part of them.
func TestReadValsShortSourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ReadVals decoded 2 keys from 15 bytes")
		}
	}()
	ReadVals(make([]int64, 2), make([]byte, 15))
}

// FuzzValsCodec: any byte run of whole keys, at any offset mod 8,
// decodes and re-encodes to itself, and both paths of the codec agree
// with the per-key reference.
func FuzzValsCodec(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(appendValsPerKey(nil, []int64{math.MinInt64, math.MaxInt64, -1, 0, 1}), uint8(5))
	f.Add(bytes.Repeat([]byte{0x80, 1, 2, 3, 4, 5, 6, 0x7f}, 9), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, off uint8) {
		data = data[:len(data)&^7]
		n, o := len(data)/8, int(off%8)
		want := make([]int64, n)
		readValsPerKey(want, data)
		framed := append(make([]byte, o, o+len(data)), data...)
		got := make([]int64, n)
		ReadVals(got, framed[o:])
		if !slices.Equal(got, want) {
			t.Fatalf("ReadVals = %v, per-key reference %v", got, want)
		}
		getValsPerKey(got, framed[o:])
		if !slices.Equal(got, want) {
			t.Fatalf("getValsPerKey = %v, per-key reference %v", got, want)
		}
		if enc := AppendVals(framed[:o], got); !bytes.Equal(enc[o:], data) {
			t.Fatalf("AppendVals(%v) = %x, want %x", got, enc[o:], data)
		}
		per := make([]byte, len(data))
		putValsPerKey(per, got)
		if !bytes.Equal(per, data) {
			t.Fatalf("putValsPerKey(%v) = %x, want %x", got, per, data)
		}
	})
}

// TestDigestOfMatchesOneLane holds the four-lane fold to Add's, for
// every tail length and a long run.
func TestDigestOfMatchesOneLane(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 1024} {
		keys := codecKeys(n, int64(n))
		if got, want := DigestOf(keys), digestOneLane(keys); got != want {
			t.Errorf("n=%d: DigestOf = %+v, one-lane fold %+v", n, got, want)
		}
	}
}

// TestFrameViewBlockMatchesOneLane holds FrameView.Block to a
// per-key decode and the one-lane digest, for block lengths 1–9 and
// 1,024, on every known slot of views whose values sit at their
// offsets in a real frame (1 mod 8 in a verification frame, 5 mod 8
// in an FT-exchange frame after its keys).
func TestFrameViewBlockMatchesOneLane(t *testing.T) {
	for _, b := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 1024} {
		v := NewBlockView(8, 4, b)
		v.Mask.Add(0)
		v.Mask.Add(2)
		v.Mask.Add(3)
		v.Vals = codecKeys(3*b, int64(b))
		v.Dig = DigestOf(v.Vals)
		for _, c := range []struct {
			kind    Kind
			wantOff int
		}{{KindVerify, 1}, {KindFTExchange, 5}} {
			kind, wantOff := c.kind, c.wantOff
			view, off := receivedView(t, kind, v)
			if off != wantOff {
				t.Fatalf("%v b=%d: values at %d mod 8 in the frame, want %d", kind, b, off, wantOff)
			}
			dst := make([]int64, b)
			for i := 0; i < 3; i++ {
				for k := range dst {
					dst[k] = ^v.Block(i)[k]
				}
				dig := view.Block(i, dst)
				if !slices.Equal(dst, v.Block(i)) {
					t.Fatalf("%v b=%d slot %d: Block decoded %v, want %v", kind, b, i, dst, v.Block(i))
				}
				if want := digestOneLane(v.Block(i)); dig != want {
					t.Fatalf("%v b=%d slot %d: Block digest %+v, one-lane fold %+v", kind, b, i, dig, want)
				}
			}
		}
	}
}

// receivedView frames v as a receiver gets it, in a whole encoded
// message of the given kind, and decodes the view in place. It also
// returns where the view's values start in the frame, mod 8.
func receivedView(tb testing.TB, kind Kind, v View) (FrameView, int) {
	tb.Helper()
	var payload []byte
	var err error
	if kind == KindVerify {
		payload, err = EncodeVerify(VerifyPayload{View: v})
	} else {
		payload, err = EncodeFTExchange(FTExchangePayload{Keys: v.Vals[:v.BlockLen], View: v})
	}
	if err != nil {
		tb.Fatal(err)
	}
	frame, err := Encode(Message{Kind: kind, From: 1, To: 2, Stage: 1, Iter: 1, Payload: payload})
	if err != nil {
		tb.Fatal(err)
	}
	m, err := DecodeFrom(frame)
	if err != nil {
		tb.Fatal(err)
	}
	var s DecodeScratch
	var fv FrameView
	if kind == KindVerify {
		fv, err = DecodeVerifyFrame(&s, m.Payload)
	} else {
		var p FTExchangeFrame
		p, err = DecodeFTExchangeFrame(&s, m.Payload)
		fv = p.View
	}
	if err != nil {
		tb.Fatal(err)
	}
	if err := fv.Validate(); err != nil {
		tb.Fatal(err)
	}
	// The values end the payload, which the trace trailer follows.
	return fv, (len(frame) - TraceWireLen - len(fv.vals)) % 8
}
