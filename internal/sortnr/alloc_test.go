package sortnr

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
)

// blockLens are the block lengths every zero-allocation test runs at:
// S_NR's one key per node and Figure 8's m = 64.
var blockLens = []int{1, 64}

// exchangePair returns a step that runs one steady-state stage-0,
// iteration-0 exchange between node 0 (the active side of link 0) and
// node 1 (the passive side) of nw, both holding m keys, wrapped in the
// round spans runNode brackets every exchange with. Both endpoints run
// on one goroutine: the passive side sends before the active side
// receives, so no step ever blocks. check verifies the blocks the step
// leaves behind.
func exchangePair(t *testing.T, nw *simnet.Network, opts Options, m int) (step func(), check func()) {
	t.Helper()
	var runners [2]*runner
	var blocks [2][]int64
	for id := range runners {
		ep, err := nw.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		runners[id] = newRunner(ep, opts, m)
		blocks[id] = make([]int64, m)
		for k := range blocks[id] {
			blocks[id][k] = int64(2*k + 1 - id) // node 0 holds the odd keys
		}
	}
	active, passive := runners[0], runners[1]
	var kept, adopted []int64
	step = func() {
		if err := passive.send(0, 0, blocks[1]); err != nil {
			t.Fatal(err)
		}
		var err error
		if kept, err = active.exchange(blocks[0], 0, 0); err != nil {
			t.Fatal(err)
		}
		if adopted, err = passive.adopt(0); err != nil {
			t.Fatal(err)
		}
		opts.Obs.RoundEnd()
	}
	check = func() {
		if len(kept) != m || len(adopted) != m || kept[m-1] > adopted[0] {
			t.Errorf("exchange order violated: active kept %v, passive adopted %v", kept, adopted)
		}
	}
	return step, check
}

// TestExchangeStepZeroAllocs pins the steady-state cost of one S_NR
// exchange over the simulated network at zero allocations: encode into
// the runner's buffer, send through the pooled link, zero-copy decode
// on the far side, merge-split into the runner's alternating buffers.
func TestExchangeStepZeroAllocs(t *testing.T) {
	for _, m := range blockLens {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			nw, err := simnet.New(simnet.Config{Dim: 3, RecvTimeout: 5 * time.Second})
			if err != nil {
				t.Fatal(err)
			}
			step, check := exchangePair(t, nw, Options{}, m)
			// Warm up: grow the decode scratch and the link's
			// packet/buffer pools to steady state.
			for i := 0; i < 8; i++ {
				step()
			}
			if n := testing.AllocsPerRun(100, step); n != 0 {
				t.Errorf("exchange step: %v allocs/op, want 0", n)
			}
			check()
		})
	}
}

// TestInstrumentedExchangeStepZeroAllocs is the acceptance gate for
// the observability layer: the same steady-state exchange, but with the
// full unified instrumentation enabled — transport message/byte
// counters and the round counter — must still be zero allocations per
// step.
func TestInstrumentedExchangeStepZeroAllocs(t *testing.T) {
	for _, m := range blockLens {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			o := obs.New(obs.NewRegistry(), 512)
			nw, err := simnet.New(simnet.Config{Dim: 3, RecvTimeout: 5 * time.Second, Obs: o.Metrics()})
			if err != nil {
				t.Fatal(err)
			}
			step, check := exchangePair(t, nw, Options{Obs: o}, m)
			for i := 0; i < 8; i++ {
				step()
			}
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Errorf("instrumented exchange step: %v allocs/op, want 0", n)
			}
			check()
			if o.Metrics().Rounds.Value() == 0 {
				t.Error("round counter recorded nothing")
			}
			if o.Metrics().MsgsTotal[1].Value() == 0 {
				t.Error("transport counters recorded nothing")
			}
		})
	}
}

// TestTracedExchangeStepZeroAllocs is the acceptance gate for the
// causal tracing layer: the instrumented steady-state exchange with a
// flight recorder attached — every message stamped with a trace
// trailer on send, linked on receive, both landing in the per-node
// rings — must still be zero allocations per step. The rings are
// preallocated and overwrite in place, so steady state (including after
// wrap) allocates nothing.
func TestTracedExchangeStepZeroAllocs(t *testing.T) {
	for _, m := range blockLens {
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			o := obs.New(obs.NewRegistry(), 512)
			// A small ring so the measurement window runs in the wrapped
			// (overwrite) regime, not just the fill regime.
			flight := forensic.New(64)
			nw, err := simnet.New(simnet.Config{Dim: 3, RecvTimeout: 5 * time.Second, Obs: o.Metrics(), Flight: flight})
			if err != nil {
				t.Fatal(err)
			}
			step, check := exchangePair(t, nw, Options{Obs: o}, m)
			// Warm up past the ring capacity so AllocsPerRun measures the
			// overwrite path.
			for i := 0; i < 80; i++ {
				step()
			}
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Errorf("traced exchange step: %v allocs/op, want 0", n)
			}
			check()
			if flight.Node(0).Len() == 0 || flight.Node(1).Len() == 0 {
				t.Error("flight recorder captured nothing — tracing was not active")
			}
		})
	}
}
