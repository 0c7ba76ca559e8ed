package blocksort

import (
	"testing"
	"time"

	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
)

// TestBlockFTExchangeRoundZeroAllocs pins one steady-state BlockFT
// merge-split round at m = 64 at zero allocations, with an observer and
// 64-slot flight recorders attached: the passive send leg (block plus
// view), the active side's receive, Φ_C merge, merge-split and reply,
// and the passive side's receive, merge, reply checks and adoption.
// Both endpoints run on one goroutine — the passive side sends before
// the active side receives, so no step blocks.
func TestBlockFTExchangeRoundZeroAllocs(t *testing.T) {
	const m = 64
	o := obs.New(obs.NewRegistry(), 512)
	flight := forensic.New(64)
	nw, err := simnet.New(simnet.Config{Dim: 1, RecvTimeout: 5 * time.Second, Obs: o.Metrics(), Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	sc := hypercube.Subcube{Dim: 1, Start: 0, End: 1}
	var runners [2]*ftRunner
	var blocks [2][]int64
	for id := range runners {
		ep, err := nw.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		r := newFTRunner(ep, Options{Obs: o, Forensic: flight.Node(id)}, m)
		r.reserve(sc)
		r.view = &r.views[0]
		runners[id] = r
		blocks[id] = make([]int64, m)
		for k := range blocks[id] {
			blocks[id][k] = int64(2*k + id)
		}
	}
	active, passive := runners[0], runners[1]
	ascending := passive.ep.Topology().Ascending(0, 1)
	var got []int64
	step := func() {
		active.view.reset(sc, m)
		active.view.set(0, blocks[0])
		passive.view.reset(sc, m)
		passive.view.set(1, blocks[1])
		if err := passive.SendFT(0, 0, blocks[1]); err != nil {
			t.Fatal(err)
		}
		if _, err := active.exchange(blocks[0], 0, 0); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = passive.passiveReply(blocks[1], 0, 0, 0, ascending); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("BlockFT exchange round: %v allocs/op, want 0", n)
	}
	if len(got) != m || got[0] != m || !passive.view.complete() || flight.Node(1).Len() == 0 {
		t.Errorf("round did not complete: passive adopted %v", got)
	}
}
