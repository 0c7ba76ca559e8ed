package hostsort

import (
	"errors"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

func newNet(t testing.TB, dim int) *simnet.Network {
	t.Helper()
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func TestRunHostSort(t *testing.T) {
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	nw := newNet(t, 3)
	out, res, err := RunHostSort(nw, keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AnyErr(); err != nil {
		t.Fatal(err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		t.Fatalf("%v (out=%v)", err, out)
	}
	if res.HostComp == 0 {
		t.Error("host computation not charged")
	}
	if res.HostComm == 0 {
		t.Error("host communication not charged")
	}
}

func TestRunHostSortValidation(t *testing.T) {
	nw := newNet(t, 2)
	if _, _, err := RunHostSort(nw, []int64{1}, 1); err == nil {
		t.Error("wrong key count: want error")
	}
	if _, _, err := RunHostSort(nw, make([]int64, 7), 2); err == nil {
		t.Error("7 keys for 4 blocks of 2: want error")
	}
	if _, _, err := RunHostSort(nw, nil, 0); err == nil {
		t.Error("empty blocks: want error")
	}
}

func TestRunHostSortBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	dim, m := 2, 8
	keys := make([]int64, (1<<uint(dim))*m)
	for i := range keys {
		keys[i] = int64(rng.Intn(100))
	}
	nw := newNet(t, dim)
	out, res, err := RunHostSort(nw, keys, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AnyErr(); err != nil {
		t.Fatal(err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		t.Fatalf("%v (out=%v)", err, out)
	}
}

func TestRunHostVerifyAcceptsHonestSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range []int{1, 5} {
		keys := make([]int64, 8*m)
		for i := range keys {
			keys[i] = int64(rng.Intn(50))
		}
		nw := newNet(t, 3)
		out, res, err := RunHostVerify(nw, keys, m)
		if err != nil {
			t.Fatal(err)
		}
		if res.HostErr != nil {
			t.Fatalf("m=%d: host rejected an honest sort: %v", m, res.HostErr)
		}
		if err := res.FirstNodeErr(); err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if err := checker.Verify(keys, out, true); err != nil {
			t.Fatalf("m=%d: %v (out=%v)", m, err, out)
		}
		if res.HostComp == 0 {
			t.Errorf("m=%d: Theorem 1 verification cost not charged", m)
		}
	}
}

func TestRunHostVerifyValidation(t *testing.T) {
	nw := newNet(t, 1)
	if _, _, err := RunHostVerify(nw, []int64{1, 2, 3}, 1); err == nil {
		t.Error("wrong key count: want error")
	}
	if _, _, err := RunHostVerify(nw, []int64{1, 2, 3}, 2); err == nil {
		t.Error("3 keys for 2 blocks of 2: want error")
	}
}

// Host-sort communication grows linearly with N while its computation
// grows as N log N — the asymptotic shape of the paper's table.
func TestHostSortCostShape(t *testing.T) {
	comm4 := hostCommFor(t, 2)
	comm16 := hostCommFor(t, 4)
	ratio := float64(comm16) / float64(comm4)
	// 4x nodes should cost roughly 4x comm (allow protocol overhead).
	if ratio < 2.5 || ratio > 6 {
		t.Errorf("host comm ratio 16/4 nodes = %.2f, want ~4", ratio)
	}
}

func hostCommFor(t *testing.T, dim int) simnet.Ticks {
	t.Helper()
	n := 1 << uint(dim)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(n - i)
	}
	nw := newNet(t, dim)
	_, res, err := RunHostSort(nw, keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.AnyErr(); err != nil {
		t.Fatal(err)
	}
	return res.HostComm
}

// keyRewrite is a link fault that rewrites the first key of the first
// S_NR exchange it carries, so the receiver merges a key that is not
// in the input.
type keyRewrite struct {
	to   int64
	done bool
}

func (f *keyRewrite) Apply(raw []byte) [][]byte {
	msg, err := wire.Decode(raw)
	if f.done || err != nil || msg.Kind != wire.KindExchange {
		return [][]byte{raw}
	}
	p, err := wire.DecodeExchange(msg.Payload)
	if err != nil || len(p.Keys) == 0 {
		return [][]byte{raw}
	}
	f.done = true
	p.Keys[0] = f.to
	msg.Payload = wire.EncodeExchange(p)
	out, err := wire.Encode(msg)
	if err != nil {
		return [][]byte{raw}
	}
	return [][]byte{out}
}

// A lie on a node-to-node link leaves S_NR's nodes holding a sorted
// sequence that is not a permutation of the input; no node notices,
// and the host's Theorem 1 check must.
func TestHostVerifyRejectsCorruptedSort(t *testing.T) {
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	nw := newNet(t, 3)
	if err := nw.InstallLinkFault(1, 0, &keyRewrite{to: 999}); err != nil {
		t.Fatal(err)
	}
	out, res, err := RunHostVerify(nw, keys, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.FirstNodeErr(); err != nil {
		t.Fatalf("S_NR noticed the lie itself: %v", err)
	}
	if checker.Verify(keys, out, true) == nil {
		t.Fatalf("the link fault left the sort correct: %v", out)
	}
	if res.HostErr == nil || !strings.Contains(res.HostErr.Error(), "verification failed") {
		t.Fatalf("host error = %v, want a verification failure", res.HostErr)
	}
}

// stubHost is a transport.Host whose Recv hands out a fixed queue of
// messages and then reports an empty mailbox.
type stubHost struct {
	transport.Host
	queue []wire.Message
}

func (h *stubHost) Recv() (wire.Message, error) {
	if len(h.queue) == 0 {
		return wire.Message{}, errors.New("empty mailbox")
	}
	m := h.queue[0]
	h.queue = h.queue[1:]
	return m, nil
}

func uploadMsg(from, phase int32, keys ...int64) wire.Message {
	return wire.Message{Kind: wire.KindHostUpload, From: from, Stage: phase, Payload: wire.AppendHost(nil, keys)}
}

// The host gather files an upload only when its sender is in the cube,
// its phase is one the host expects, it carries m keys, and its slot is
// still empty. Anything else is an error, and nothing of it is filed.
func TestGatherRefusesBadUploads(t *testing.T) {
	const m = 2
	good := uploadMsg(1, 0, 5, 6)
	for _, tc := range []struct {
		name string
		bad  wire.Message
		want string
	}{
		{"sender outside the cube", uploadMsg(4, 0, 1, 2), "outside the 4-node cube"},
		{"negative sender", uploadMsg(-1, 0, 1, 2), "outside the 4-node cube"},
		{"unknown phase", uploadMsg(0, 2, 1, 2), "unknown phase 2"},
		{"short upload", uploadMsg(0, 1, 1), "1 keys, want 2"},
		{"second upload", good, "phase 0 uploaded twice"},
		{"undecodable", wire.Message{Kind: wire.KindHostUpload, Payload: []byte{1}}, "from 0: wire: truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			initial, sorted := make([]int64, 4*m), make([]int64, 4*m)
			h := &stubHost{queue: []wire.Message{good, tc.bad}}
			err := gather(h, m, initial, sorted)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("gather error = %v, want one containing %q", err, tc.want)
			}
			want := []int64{0, 0, 5, 6, 0, 0, 0, 0}
			if !slices.Equal(initial, want) || !slices.Equal(sorted, make([]int64, 4*m)) {
				t.Errorf("filed initial %v sorted %v; want only the good upload, %v", initial, sorted, want)
			}
		})
	}
}

func TestGatherFilesBySender(t *testing.T) {
	initial, sorted := make([]int64, 4), make([]int64, 4)
	h := &stubHost{queue: []wire.Message{
		uploadMsg(3, 1, 9), uploadMsg(0, 0, 1), uploadMsg(2, 0, 3), uploadMsg(1, 1, 7),
		uploadMsg(3, 0, 4), uploadMsg(0, 1, 6), uploadMsg(1, 0, 2), uploadMsg(2, 1, 8),
	}}
	if err := gather(h, 1, initial, sorted); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(initial, []int64{1, 2, 3, 4}) || !slices.Equal(sorted, []int64{6, 7, 8, 9}) {
		t.Errorf("filed initial %v sorted %v", initial, sorted)
	}
}
