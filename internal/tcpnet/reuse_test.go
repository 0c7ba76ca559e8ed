package tcpnet

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/wire"
)

// goroutineCount reports the current goroutine count after giving
// finished goroutines a moment to unwind (reader goroutines exit
// asynchronously after Close).
func settledGoroutines(t *testing.T, atMost int) int {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	n := runtime.NumGoroutine()
	for n > atMost && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestNetworkReuseAcrossRuns is the regression test for the "Not
// reusable across runs" lifecycle bug: two back-to-back verified block
// sorts over one TCP mesh (Reset between them) must produce identical
// verified results, identical virtual-time accounting, and identical
// per-run traffic counters — and the mesh must not accumulate
// goroutines or connections as runs pass through it.
func TestNetworkReuseAcrossRuns(t *testing.T) {
	before := runtime.NumGoroutine()

	nw, err := New(Config{Dim: 2, RecvTimeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	// Four nodes holding four keys each, in node order.
	keys := func() []int64 {
		return []int64{
			31, -6, 14, 0,
			10, 8, 3, 9,
			22, -9, 17, 1,
			4, 2, 7, 5,
		}
	}

	type runSummary struct {
		sorted   []int64
		makespan int64
		msgs     int64
		bytes    int64
	}
	var runs []runSummary
	const rounds = 3
	during := before
	for i := 0; i < rounds; i++ {
		if i > 0 {
			if err := nw.Reset(nil, nil); err != nil {
				t.Fatalf("run %d: reset: %v", i, err)
			}
		}
		oc, err := core.RunBlocks(nw, keys(), 4, nil)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if oc.Detected() {
			t.Fatalf("run %d: unexpected fault: %v / %v", i, oc.HostErrors, oc.Result.AnyErr())
		}
		runs = append(runs, runSummary{
			sorted:   oc.Sorted,
			makespan: int64(oc.Result.Makespan()),
			msgs:     oc.Result.Metrics.TotalMsgs(),
			bytes:    oc.Result.Metrics.TotalBytes(),
		})
		// The mesh must not grow per run: node goroutines are gone
		// (RunFT waits for them) and the reader-goroutine census is
		// fixed at construction. Allow the same slack as the final
		// check for unrelated runtime goroutines.
		if i == 0 {
			during = runtime.NumGoroutine()
		} else if n := settledGoroutines(t, during+2); n > during+2 {
			t.Errorf("run %d: goroutine count grew: %d after run 0, %d now", i, during, n)
		}
	}
	for i := 1; i < rounds; i++ {
		if len(runs[i].sorted) != len(runs[0].sorted) {
			t.Fatalf("run %d: %d keys, run 0 had %d", i, len(runs[i].sorted), len(runs[0].sorted))
		}
		for j := range runs[0].sorted {
			if runs[i].sorted[j] != runs[0].sorted[j] {
				t.Fatalf("run %d diverges at key %d: %d vs %d", i, j, runs[i].sorted[j], runs[0].sorted[j])
			}
		}
		if runs[i].makespan != runs[0].makespan {
			t.Errorf("run %d makespan %d, run 0 %d (reuse must not change virtual time)", i, runs[i].makespan, runs[0].makespan)
		}
		if runs[i].msgs != runs[0].msgs || runs[i].bytes != runs[0].bytes {
			t.Errorf("run %d traffic %d msgs/%d bytes, run 0 %d/%d (Reset must zero per-run counters)",
				i, runs[i].msgs, runs[i].bytes, runs[0].msgs, runs[0].bytes)
		}
	}
	for j := 1; j < len(runs[0].sorted); j++ {
		if runs[0].sorted[j-1] > runs[0].sorted[j] {
			t.Fatalf("output not sorted at %d: %v", j, runs[0].sorted)
		}
	}

	nw.Close()
	if n := settledGoroutines(t, before+2); n > before+2 {
		t.Errorf("goroutine leak: %d before, %d after Close", before, n)
	}
}

// TestResetDrainsStaleMailboxes pins the drain half of Reset: a frame
// parked in a link inbox by a previous run must not leak into the next
// run's receives.
func TestResetDrainsStaleMailboxes(t *testing.T) {
	nw := newNet(t, 1)
	a, err := nw.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	stale := wire.Message{Kind: wire.KindExchange, Stage: 7,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{99}})}
	if err := a.Send(0, stale); err != nil {
		t.Fatal(err)
	}
	// Wait for the reader goroutine to move the frame from the socket
	// into the inbox, so the drain deterministically sees it.
	deadline := time.Now().Add(5 * time.Second)
	for len(nw.inboxes[1][0]) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if len(nw.inboxes[1][0]) == 0 {
		t.Fatal("stale frame never reached the inbox")
	}
	if err := nw.Reset(nil, nil); err != nil {
		t.Fatal(err)
	}
	if got := nw.Metrics().TotalMsgs(); got != 0 {
		t.Errorf("counters after Reset: %d msgs, want 0", got)
	}
	b, err := nw.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := wire.Message{Kind: wire.KindExchange, Stage: 1,
		Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{7}})}
	a2, err := nw.Endpoint(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.Send(0, fresh); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv(0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stage != 1 {
		t.Fatalf("received stale frame: %+v", got)
	}
}

// TestResetAfterCloseFails pins the terminal state: a closed mesh
// cannot be resurrected.
func TestResetAfterCloseFails(t *testing.T) {
	nw, err := New(Config{Dim: 1, RecvTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	nw.Close()
	if err := nw.Reset(nil, nil); err == nil {
		t.Fatal("Reset after Close: want error")
	}
}
