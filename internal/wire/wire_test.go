package wire

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bitset"
)

func TestMessageRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		m    Message
	}{
		{"empty payload", Message{Kind: KindExchange, From: 3, To: 7, Stage: 2, Iter: 1}},
		{"with payload", Message{Kind: KindFTExchange, From: 0, To: 1, Payload: []byte{1, 2, 3}}},
		{"host error", Message{Kind: KindError, From: 5, To: HostID, Payload: EncodeError(ErrorPayload{Predicate: "progress", Detail: "x"})}},
		{"negative from (host)", Message{Kind: KindHostDownload, From: HostID, To: 0}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			buf, err := Encode(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			if len(buf) != EncodedSize(len(tc.m.Payload)) {
				t.Errorf("encoded %d bytes, EncodedSize says %d", len(buf), EncodedSize(len(tc.m.Payload)))
			}
			got, err := Decode(buf)
			if err != nil {
				t.Fatal(err)
			}
			if got.Kind != tc.m.Kind || got.From != tc.m.From || got.To != tc.m.To ||
				got.Stage != tc.m.Stage || got.Iter != tc.m.Iter {
				t.Fatalf("header mismatch: got %+v want %+v", got, tc.m)
			}
			if string(got.Payload) != string(tc.m.Payload) {
				t.Fatalf("payload mismatch: %v vs %v", got.Payload, tc.m.Payload)
			}
		})
	}
}

// payloadBody is a wire.Body over fixed bytes whose Len may lie.
type payloadBody struct {
	b   []byte
	len int
}

func (p *payloadBody) Len() int                   { return p.len }
func (p *payloadBody) AppendTo(buf []byte) []byte { return append(buf, p.b...) }

// TestBodyFramesLikePayload: a message whose payload is a Body encodes
// to the frame the same payload bytes make, in place in a buffer sized
// for the frame, and a Body whose Len disagrees with what it writes is
// refused.
func TestBodyFramesLikePayload(t *testing.T) {
	payload := EncodeExchange(ExchangePayload{Keys: []int64{4, -1, 9}})
	m := Message{Kind: KindExchange, From: 2, To: 3, Stage: 1, Iter: 1, Payload: payload,
		Trace: TraceContext{Origin: 2, Seq: 5, Parent: 7}}
	want, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Payload, m.Body = nil, &payloadBody{b: payload, len: len(payload)}
	if m.PayloadLen() != len(payload) {
		t.Fatalf("PayloadLen = %d, want %d", m.PayloadLen(), len(payload))
	}
	buf := append(make([]byte, 0, 1+len(want)), 0xEE)
	got, err := AppendMessage(buf, m)
	if err != nil {
		t.Fatal(err)
	}
	if string(got[1:]) != string(want) || &got[0] != &buf[0] {
		t.Fatalf("body frame %v, payload frame %v (reallocated: %v)", got[1:], want, &got[0] != &buf[0])
	}
	m.Body = &payloadBody{b: payload, len: len(payload) - 1}
	if _, err := Encode(m); err == nil {
		t.Error("body writing more than its Len: want error")
	}
}

func TestEncodeRejectsInvalidKind(t *testing.T) {
	if _, err := Encode(Message{Kind: 0}); err == nil {
		t.Error("kind 0: want error")
	}
	if _, err := Encode(Message{Kind: 200}); err == nil {
		t.Error("kind 200: want error")
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	good, err := Encode(Message{Kind: KindExchange, Payload: []byte{9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name string
		buf  []byte
	}{
		{"empty", nil},
		{"short header", good[:10]},
		{"truncated payload", good[:len(good)-1]},
		{"trailing garbage", append(append([]byte{}, good...), 0xFF)},
		{"bad kind", append([]byte{0}, good[1:]...)},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Decode(tc.buf); err == nil {
				t.Errorf("Decode(%s): want error, got nil", tc.name)
			}
		})
	}
}

func TestDecodeRejectsHugeDeclaredPayload(t *testing.T) {
	m := Message{Kind: KindExchange}
	buf, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the length field to something absurd.
	buf[17], buf[18], buf[19], buf[20] = 0xFF, 0xFF, 0xFF, 0x7F
	if _, err := Decode(buf); err == nil {
		t.Error("huge declared payload: want error")
	}
}

func TestKindString(t *testing.T) {
	if KindFTExchange.String() != "ft-exchange" {
		t.Errorf("String = %q", KindFTExchange.String())
	}
	if Kind(99).String() != "kind(99)" {
		t.Errorf("unknown kind String = %q", Kind(99).String())
	}
}

func TestExchangePayloadRoundTrip(t *testing.T) {
	p := ExchangePayload{Keys: []int64{-5, 0, 1 << 40}}
	got, err := DecodeExchange(EncodeExchange(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys) != 3 || got.Keys[0] != -5 || got.Keys[2] != 1<<40 {
		t.Fatalf("got %+v", got)
	}
	if _, err := DecodeExchange([]byte{1, 0, 0, 0}); !errors.Is(err, ErrTruncated) {
		t.Errorf("truncated keys: want ErrTruncated, got %v", err)
	}
	if _, err := DecodeExchange(append(EncodeExchange(p), 0)); err == nil {
		t.Error("trailing byte: want error")
	}
}

func makeView(t *testing.T, base int, vals map[int]int64, size int) View {
	t.Helper()
	v := NewView(base, size)
	idxs := make([]int, 0, len(vals))
	for i := range vals {
		idxs = append(idxs, i)
	}
	// Insert in ascending slot order.
	for i := 0; i < size; i++ {
		if val, ok := vals[i]; ok {
			v.Mask.Add(i)
			v.Vals = append(v.Vals, val)
		}
	}
	_ = idxs
	return v
}

func TestViewValidate(t *testing.T) {
	v := makeView(t, 4, map[int]int64{0: 10, 3: 20}, 4)
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := v
	bad.Vals = bad.Vals[:1]
	if err := bad.Validate(); err == nil {
		t.Error("value/mask count mismatch: want error")
	}
	bad2 := v
	bad2.Size = 5
	if err := bad2.Validate(); err == nil {
		t.Error("mask length mismatch: want error")
	}
	bad3 := v
	bad3.Base = -2
	if err := bad3.Validate(); err == nil {
		t.Error("negative base: want error")
	}
	bad4 := v
	bad4.BlockLen = 0
	if err := bad4.Validate(); err == nil {
		t.Error("zero block length: want error")
	}
}

func TestBlockViewRoundTrip(t *testing.T) {
	v := NewBlockView(4, 4, 3)
	v.Mask.Add(0)
	v.Mask.Add(2)
	v.Vals = []int64{1, 2, 3, 10, 20, 30}
	buf, err := EncodeVerify(VerifyPayload{View: v})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeVerify(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.View.BlockLen != 3 || got.View.Mask.Count() != 2 {
		t.Fatalf("view %+v", got.View)
	}
	b0 := got.View.Block(0)
	b1 := got.View.Block(1)
	if b0[0] != 1 || b0[2] != 3 || b1[0] != 10 || b1[2] != 30 {
		t.Fatalf("blocks %v %v", b0, b1)
	}
	if len(buf) != ViewEncodedSize(4, 2, 3) {
		t.Errorf("encoded %d bytes, ViewEncodedSize says %d", len(buf), ViewEncodedSize(4, 2, 3))
	}
}

func TestBlockViewDecodeRejectsHugeClaim(t *testing.T) {
	v := NewBlockView(0, 2, 2)
	v.Mask.Add(0)
	v.Vals = []int64{1, 2}
	buf, err := EncodeVerify(VerifyPayload{View: v})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt blockLen (bytes 8..11) to a huge value.
	buf[8], buf[9], buf[10], buf[11] = 0xFF, 0xFF, 0x00, 0x00
	if _, err := DecodeVerify(buf); err == nil {
		t.Error("huge block length: want error")
	}
}

func TestFTExchangeRoundTrip(t *testing.T) {
	v := makeView(t, 0, map[int]int64{1: 7, 2: -9}, 4)
	p := FTExchangePayload{Keys: []int64{42, 43}, View: v}
	buf, err := EncodeFTExchange(p)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFTExchange(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys) != 2 || got.Keys[0] != 42 {
		t.Fatalf("keys = %v", got.Keys)
	}
	if got.View.Base != 0 || got.View.Size != 4 {
		t.Fatalf("view bounds = %d/%d", got.View.Base, got.View.Size)
	}
	if !got.View.Mask.Has(1) || !got.View.Mask.Has(2) || got.View.Mask.Count() != 2 {
		t.Fatalf("mask = %v", got.View.Mask.String())
	}
	if got.View.Vals[0] != 7 || got.View.Vals[1] != -9 {
		t.Fatalf("vals = %v", got.View.Vals)
	}
}

func TestVerifyRoundTrip(t *testing.T) {
	v := makeView(t, 8, map[int]int64{0: 1, 1: 2, 2: 3, 3: 4}, 4)
	buf, err := EncodeVerify(VerifyPayload{View: v})
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeVerify(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.View.Base != 8 || got.View.Mask.Count() != 4 {
		t.Fatalf("got view %+v", got.View)
	}
	if len(buf) != ViewEncodedSize(4, 4, 1) {
		t.Errorf("encoded %d bytes, ViewEncodedSize says %d", len(buf), ViewEncodedSize(4, 4, 1))
	}
}

func TestHostRoundTrip(t *testing.T) {
	p := HostPayload{Keys: []int64{1, 2, 3}}
	got, err := DecodeHost(EncodeHost(p))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Keys) != 3 {
		t.Fatalf("got %v", got.Keys)
	}
}

func TestErrorPayloadRoundTrip(t *testing.T) {
	p := ErrorPayload{Predicate: "consistency", Kind: 1, Accused: 5, Detail: "slot 3 mismatch: 10 vs 12"}
	got, err := DecodeError(EncodeError(p))
	if err != nil {
		t.Fatal(err)
	}
	if got != p {
		t.Fatalf("got %+v want %+v", got, p)
	}
	if _, err := DecodeError([]byte{10, 0, 0, 0, 'a'}); err == nil {
		t.Error("truncated string: want error")
	}
}

func TestViewDecodeRejectsCorruptMask(t *testing.T) {
	v := makeView(t, 0, map[int]int64{0: 5}, 3)
	buf, err := EncodeVerify(VerifyPayload{View: v})
	if err != nil {
		t.Fatal(err)
	}
	// Set a mask bit beyond the view size (byte 28 — after base, size,
	// blockLen, and the 16-byte digest — is the start of the mask word;
	// bit 3 of a 3-slot view is invalid).
	buf[28] |= 1 << 3
	if _, err := DecodeVerify(buf); err == nil {
		t.Error("mask bit beyond size: want error")
	}
}

func TestFTExchangeRandomRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(nKeys uint8, size uint8, maskSeed uint32) bool {
		keys := make([]int64, int(nKeys)%8)
		for i := range keys {
			keys[i] = rng.Int63() - rng.Int63()
		}
		sz := int(size)%100 + 1
		mask := bitset.New(sz)
		var vals []int64
		for i := 0; i < sz; i++ {
			if (maskSeed>>(uint(i)%32))&1 == 1 {
				mask.Add(i)
				vals = append(vals, rng.Int63())
			}
		}
		p := FTExchangePayload{Keys: keys, View: View{Base: 16, Size: int32(sz), BlockLen: 1, Mask: mask, Vals: vals}}
		buf, err := EncodeFTExchange(p)
		if err != nil {
			return false
		}
		got, err := DecodeFTExchange(buf)
		if err != nil {
			return false
		}
		if len(got.Keys) != len(keys) || !got.View.Mask.Equal(mask) || len(got.Vals()) != len(vals) {
			return false
		}
		for i := range vals {
			if got.Vals()[i] != vals[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Vals is a test helper accessor for the view values of a payload.
func (p FTExchangePayload) Vals() []int64 { return p.View.Vals }
