package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bitset"
)

// The Byzantine fault model hands the decoders arbitrary bytes; they
// must reject garbage with errors, never panic or over-allocate.

func FuzzDecodeMessage(f *testing.F) {
	good, err := Encode(Message{Kind: KindFTExchange, From: 1, To: 2, Stage: 3, Iter: 1,
		Payload: []byte{1, 2, 3}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(make([]byte, 21))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		// Whatever decoded must re-encode.
		if _, err := Encode(m); err != nil {
			t.Fatalf("decoded message does not re-encode: %v", err)
		}
	})
}

func FuzzDecodeFTExchange(f *testing.F) {
	v := NewView(0, 4)
	v.Mask.Add(1)
	v.Vals = []int64{42}
	good, err := EncodeFTExchange(FTExchangePayload{Keys: []int64{1, 2}, View: v})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeFTExchange(data)
		if err != nil {
			return
		}
		if err := p.View.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid view: %v", err)
		}
		if _, err := EncodeFTExchange(p); err != nil {
			t.Fatalf("decoded payload does not re-encode: %v", err)
		}
	})
}

func FuzzDecodeVerify(f *testing.F) {
	v := NewBlockView(4, 2, 3)
	v.Mask.Add(0)
	v.Vals = []int64{7, 8, 9}
	good, err := EncodeVerify(VerifyPayload{View: v})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{1, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeVerify(data)
		if err != nil {
			return
		}
		if err := p.View.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid view: %v", err)
		}
	})
}

func FuzzDecodeError(f *testing.F) {
	f.Add(EncodeError(ErrorPayload{Predicate: "progress", Detail: "x"}))
	f.Add([]byte{255, 255, 255, 255})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodeError(data)
		if err != nil {
			return
		}
		back, err := DecodeError(EncodeError(p))
		if err != nil || back != p {
			t.Fatalf("round trip mismatch: %+v vs %+v (%v)", p, back, err)
		}
	})
}

func FuzzBitsetFromWords(f *testing.F) {
	f.Add(10, []byte{1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, n int, raw []byte) {
		if n < 0 || n > 1<<16 {
			return
		}
		words := make([]uint64, len(raw)/8)
		for i := range words {
			for k := 0; k < 8; k++ {
				words[i] |= uint64(raw[i*8+k]) << uint(8*k)
			}
		}
		s, err := bitset.FromWords(n, words)
		if err != nil {
			return
		}
		if s.Count() > n {
			t.Fatalf("count %d exceeds length %d", s.Count(), n)
		}
	})
}

// FuzzDecodeFrom pins the zero-copy decoder to the allocating one:
// on every input they must agree on accept/reject, and on accept the
// decoded messages must match field for field (DecodeFrom's payload
// aliasing the input instead of copying it).
func FuzzDecodeFrom(f *testing.F) {
	good, err := Encode(Message{Kind: KindVerify, From: 3, To: 1, Stage: 2, Iter: 1,
		Payload: []byte{9, 9, 9}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0xFF})
	f.Add(make([]byte, headerLen))
	f.Fuzz(func(t *testing.T, data []byte) {
		want, errWant := Decode(data)
		got, errGot := DecodeFrom(data)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("Decode err=%v, DecodeFrom err=%v", errWant, errGot)
		}
		if errWant != nil {
			return
		}
		if got.Kind != want.Kind || got.From != want.From || got.To != want.To ||
			got.Stage != want.Stage || got.Iter != want.Iter ||
			!bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("DecodeFrom = %+v, Decode = %+v", got, want)
		}
	})
}

// copyingView is the view decoder as it was before views were decoded
// in place: the same checks in the same order, with every value copied
// out of the payload before anything reads it. It stays here as the
// reference FuzzDecodeFrameMatchesCopying holds the in-place decoder
// to.
func copyingView(r *reader) (View, error) {
	base, err := r.u32()
	if err != nil {
		return View{}, err
	}
	size, err := r.u32()
	if err != nil {
		return View{}, err
	}
	blockLen, err := r.u32()
	if err != nil {
		return View{}, err
	}
	digSum, err := r.u64()
	if err != nil {
		return View{}, err
	}
	digXor, err := r.u64()
	if err != nil {
		return View{}, err
	}
	if size > MaxPayload/8 || blockLen < 1 || blockLen > MaxPayload/8 {
		return View{}, fmt.Errorf("wire: view size %d block %d implausible: %w", size, blockLen, ErrTruncated)
	}
	nWords := (int(size) + 63) / 64
	if nWords > (len(r.buf)-r.off)/8 {
		return View{}, ErrTruncated
	}
	words := make([]uint64, nWords)
	for i := range words {
		words[i] = binary.LittleEndian.Uint64(r.buf[r.off+8*i:])
	}
	r.off += 8 * nWords
	var mask bitset.Set
	if err := mask.LoadWords(int(size), words); err != nil {
		return View{}, fmt.Errorf("wire: view mask: %w", err)
	}
	total := mask.Count() * int(blockLen)
	if total > (len(r.buf)-r.off)/8 {
		return View{}, fmt.Errorf("wire: view claims %d values beyond buffer: %w", total, ErrTruncated)
	}
	vals := make([]int64, total)
	r.readKeys(vals)
	return View{Base: int32(base), Size: int32(size), BlockLen: int32(blockLen),
		Dig: Digest{Sum: digSum, Xor: digXor}, Mask: mask, Vals: vals}, nil
}

// copyingDecode decodes an FT-exchange payload (keys, then a view) or,
// with verify, a verification payload (a view only) the copying way.
func copyingDecode(buf []byte, verify bool) ([]int64, View, error) {
	r := &reader{buf: buf}
	var keys []int64
	if !verify {
		n, err := r.keyCount()
		if err != nil {
			return nil, View{}, err
		}
		keys = make([]int64, n)
		r.readKeys(keys)
	}
	v, err := copyingView(r)
	if err != nil {
		return nil, View{}, err
	}
	return keys, v, r.done()
}

// FuzzDecodeFrameMatchesCopying pins the in-place view decoders to the
// copying reference on Byzantine bytes: DecodeFTExchangeFrame and
// DecodeVerifyFrame accept and reject exactly what copyingDecode does,
// with the same error text, and on accept yield the same keys, view
// header, mask and Validate verdict, and adopt, block by block, the
// same keys and the same slot digests (FrameView.Block) a receiver
// would have computed from the copies.
func FuzzDecodeFrameMatchesCopying(f *testing.F) {
	v := NewBlockView(4, 4, 2)
	v.Mask.Add(1)
	v.Mask.Add(3)
	v.Vals = []int64{-5, 9, 11, 1 << 40}
	v.Dig = DigestOf(v.Vals)
	ft, err := EncodeFTExchange(FTExchangePayload{Keys: []int64{1, 2}, View: v})
	if err != nil {
		f.Fatal(err)
	}
	verify, err := EncodeVerify(VerifyPayload{View: v})
	if err != nil {
		f.Fatal(err)
	}
	stray := slices.Clone(verify)
	stray[28] |= 1 << 7 // a mask bit beyond the view's 4 slots
	f.Add(ft, false)
	f.Add(verify, true)
	f.Add(stray, true)
	f.Add(ft[:len(ft)-3], false)
	f.Add([]byte{}, true)
	f.Add([]byte{0, 0, 0, 0}, false)
	var s DecodeScratch
	f.Fuzz(func(t *testing.T, data []byte, verify bool) {
		wantKeys, want, wantErr := copyingDecode(data, verify)
		var keys []int64
		var got FrameView
		var err error
		if verify {
			got, err = DecodeVerifyFrame(&s, data)
		} else {
			var p FTExchangeFrame
			p, err = DecodeFTExchangeFrame(&s, data)
			keys, got = p.Keys, p.View
		}
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("in-place decode err = %v, copying decode err = %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if !slices.Equal(keys, wantKeys) {
			t.Fatalf("keys %v, copying decoder's %v", keys, wantKeys)
		}
		if got.Base != want.Base || got.Size != want.Size || got.BlockLen != want.BlockLen ||
			got.Dig != want.Dig || !got.Mask.Equal(want.Mask) {
			t.Fatalf("view header %+v, copying decoder's %+v", got, want)
		}
		if e1, e2 := got.Validate(), want.Validate(); fmt.Sprint(e1) != fmt.Sprint(e2) {
			t.Fatalf("Validate = %v, copying decoder's view: %v", e1, e2)
		}
		b := int(got.BlockLen)
		dst := make([]int64, b)
		for i := 0; i < got.Mask.Count(); i++ {
			dig := got.Block(i, dst)
			if !slices.Equal(dst, want.Block(i)) || dig != DigestOf(want.Block(i)) {
				t.Fatalf("slot %d adopts %v (digest %v), copying decoder's %v (digest %v)",
					i, dst, dig, want.Block(i), DigestOf(want.Block(i)))
			}
			for k := range dst {
				if got.Val(i*b+k) != want.Vals[i*b+k] {
					t.Fatalf("value %d reads %d, copying decoder's %d", i*b+k, got.Val(i*b+k), want.Vals[i*b+k])
				}
			}
		}
	})
}
