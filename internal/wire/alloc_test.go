package wire

import "testing"

// The zero-allocation contract of the append/scratch API: once the
// destination buffer and decode scratch have grown to steady-state
// size, an encode/decode round trip performs no allocation. These
// tests pin that contract so a regression shows up as a test failure,
// not as a slow drift in the benchmark numbers.

func assertZeroAllocs(t *testing.T, name string, f func()) {
	t.Helper()
	f() // warm up: grow buffers and scratch to steady state
	if n := testing.AllocsPerRun(100, f); n != 0 {
		t.Errorf("%s: %v allocs/op, want 0", name, n)
	}
}

func TestMessageRoundTripZeroAllocs(t *testing.T) {
	payload := AppendExchange(nil, []int64{7, 11, 13})
	m := Message{Kind: KindExchange, From: 2, To: 3, Stage: 1, Iter: 0, Payload: payload}
	var enc []byte
	assertZeroAllocs(t, "AppendMessage+DecodeFrom", func() {
		var err error
		enc, err = AppendMessage(enc[:0], m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFrom(enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Kind != m.Kind || len(got.Payload) != len(payload) {
			t.Fatal("round trip mismatch")
		}
	})
}

func TestExchangeRoundTripZeroAllocs(t *testing.T) {
	keys := []int64{5, 3, 8, 1}
	var enc []byte
	var s DecodeScratch
	assertZeroAllocs(t, "AppendExchange+DecodeExchangeInto", func() {
		enc = AppendExchange(enc[:0], keys)
		p, err := DecodeExchangeInto(&s, enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Keys) != len(keys) {
			t.Fatal("round trip mismatch")
		}
	})
}

func TestFTExchangeRoundTripZeroAllocs(t *testing.T) {
	v := NewView(0, 8)
	v.Mask.Add(1)
	v.Mask.Add(4)
	v.Vals = []int64{42, 17}
	p := FTExchangePayload{Keys: []int64{9, 2}, View: v}
	var enc []byte
	var s DecodeScratch
	dst := make([]int64, 1)
	assertZeroAllocs(t, "AppendFTExchange+DecodeFTExchangeFrame", func() {
		var err error
		enc, err = AppendFTExchange(enc[:0], p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeFTExchangeFrame(&s, enc)
		if err != nil {
			t.Fatal(err)
		}
		got.View.Block(1, dst)
		if len(got.Keys) != 2 || got.View.Mask.Count() != 2 || dst[0] != 17 {
			t.Fatal("round trip mismatch")
		}
	})
}

func TestVerifyRoundTripZeroAllocs(t *testing.T) {
	v := NewBlockView(0, 4, 3)
	v.Mask.Add(0)
	v.Mask.Add(2)
	v.Vals = []int64{1, 2, 3, 10, 11, 12}
	p := VerifyPayload{View: v}
	var enc []byte
	var s DecodeScratch
	assertZeroAllocs(t, "AppendVerify+DecodeVerifyFrame", func() {
		var err error
		enc, err = AppendVerify(enc[:0], p)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeVerifyFrame(&s, enc)
		if err != nil {
			t.Fatal(err)
		}
		if got.Mask.Count() != 2 || got.Val(5) != 12 {
			t.Fatal("round trip mismatch")
		}
	})
}

// TestDigestMaintenanceZeroAllocs pins the incremental digest ops the
// exchange hot path performs per element — Add, Remove, Merge — plus
// the from-scratch DigestOf used by slow paths, at zero allocations.
func TestDigestMaintenanceZeroAllocs(t *testing.T) {
	keys := []int64{4, -4, 2, 9, 0, 7}
	var d Digest
	assertZeroAllocs(t, "Digest.Add/Remove/Merge/DigestOf", func() {
		for _, k := range keys {
			d.Add(k)
		}
		d.Merge(DigestOf(keys))
		for _, k := range keys {
			d.Remove(k)
			d.Remove(k) // undo the merged copy too
		}
		if d != (Digest{}) {
			t.Fatal("digest did not cancel")
		}
	})
}

func TestHostRoundTripZeroAllocs(t *testing.T) {
	keys := []int64{4, 4, 2, 9, 0, 7}
	var enc []byte
	var s DecodeScratch
	assertZeroAllocs(t, "AppendHost+DecodeHostInto", func() {
		enc = AppendHost(enc[:0], keys)
		p, err := DecodeHostInto(&s, enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Keys) != len(keys) {
			t.Fatal("round trip mismatch")
		}
	})
}
