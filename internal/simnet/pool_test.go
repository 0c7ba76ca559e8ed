package simnet

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/wire"
)

// bytesBody is a wire.Body over a fixed payload.
type bytesBody []byte

func (b bytesBody) Len() int                   { return len(b) }
func (b bytesBody) AppendTo(buf []byte) []byte { return append(buf, b...) }

// TestBodyFrameZeroAllocs pins a 1 MiB frame sent as a wire.Body and
// received zero-copy at 0 allocations once warm: the frame's buffer
// comes from the free list of its size class, is never regrown, and
// returns there at the receiver's next receive.
func TestBodyFrameZeroAllocs(t *testing.T) {
	o := obs.New(obs.NewRegistry(), 0)
	nw, err := New(Config{Dim: 1, RecvTimeout: time.Second, Obs: o.Metrics(), Flight: forensic.New(64)})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	body := make(bytesBody, 1<<20)
	body[len(body)-1] = 7
	m := wire.Message{Kind: wire.KindVerify, Body: &body}
	step := func() {
		if err := a.Send(0, m); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv(0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Payload) != len(body) || got.Payload[len(body)-1] != 7 || got.Body != nil {
			t.Fatal("frame did not round-trip")
		}
	}
	for i := 0; i < 4; i++ {
		step()
	}
	if n := testing.AllocsPerRun(50, step); n != 0 {
		t.Fatalf("1 MiB body frame: %v allocs/op, want 0", n)
	}
}

// TestRetiredNodeReturnsLastBuffer: the buffer behind a node's last
// delivered message goes back to its class's free list when the node
// retires, instead of leaving with the endpoint, and the next frame of
// that class reuses it.
func TestRetiredNodeReturnsLastBuffer(t *testing.T) {
	nw := newNet(t, 1)
	a, _ := nw.Endpoint(0)
	b, _ := nw.Endpoint(1)
	m := wire.Message{Kind: wire.KindExchange, Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: make([]int64, 100)})}
	if err := a.Send(0, m); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Recv(0); err != nil {
		t.Fatal(err)
	}
	class := bufClass(wire.EncodedSize(len(m.Payload)))
	held := nw.eps[1].held
	if held == nil || len(nw.free[class].bufs) != 0 {
		t.Fatalf("node 1 holds %d bytes and class %d's free list %d buffers, want its frame and none",
			len(held), class, len(nw.free[class].bufs))
	}
	nw.WorkerDone(1)
	if nw.eps[1].held != nil {
		t.Fatal("retired node still holds its buffer")
	}
	buf := nw.getBuf(wire.EncodedSize(len(m.Payload)))
	if &buf[:1][0] != &held[:1][0] {
		t.Fatal("the next frame of the class did not reuse the retired node's buffer")
	}
}

// TestBufClass pins the size classes: the smallest power of two, at
// least 64 bytes, that holds the frame, up to the class of the largest
// frame the wire format admits.
func TestBufClass(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{1, 0}, {64, 0}, {65, 1}, {1024, 4}, {1025, 5},
		{wire.EncodedSize(wire.MaxPayload), bufClasses - 1},
	} {
		if got := bufClass(tc.n); got != tc.class {
			t.Errorf("bufClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	if bufClass(wire.EncodedSize(wire.MaxPayload)+1<<26) < bufClasses {
		t.Error("a frame beyond the wire format's bound got a size class")
	}
}
