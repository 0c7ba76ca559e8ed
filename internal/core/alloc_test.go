package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
)

// pairCube is the whole 2-node cube the alloc tests run on.
var pairCube = hypercube.Subcube{Dim: 1, Start: 0, End: 1}

// tracedPair returns the runners of a 2-node cube holding m keys each,
// node 0 (the active side of link 0) and node 1 (the passive side),
// with an observer and 64-slot flight recorders attached, as a traced
// service job runs them, and their blocks: node id holds 2k+id.
func tracedPair(t *testing.T, m int) (active, passive *runner, blocks [2][]int64, flight *forensic.Flight) {
	t.Helper()
	o := obs.New(obs.NewRegistry(), 512)
	flight = forensic.New(64)
	nw, err := simnet.New(simnet.Config{Dim: 1, RecvTimeout: 5 * time.Second, Obs: o.Metrics(), Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	var runners [2]*runner
	for id := range runners {
		ep, err := nw.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		r := &runner{ep: ep, opts: Options{Obs: o, Forensic: flight.Node(id)}, m: m}
		r.reserve(pairCube)
		r.view = &r.views[0]
		runners[id] = r
		blocks[id] = make([]int64, m)
		for k := range blocks[id] {
			blocks[id][k] = int64(2*k + id)
		}
	}
	return runners[0], runners[1], blocks, flight
}

// TestFTRoundZeroAllocs pins one steady-state round of the runner at
// zero allocations, with an observer and flight recorders attached, for
// one key per node (S_FT) and for Figure 8's m = 64:
//
//   - exchange: the passive send leg (block plus view), the active
//     side's receive, Φ_C merge, merge-split and reply, and the passive
//     side's receive, merge, reply checks and adoption;
//   - verify: one exchange of the final verification round, the passive
//     side's view, the active side's receive, Φ_C merge and echo, and
//     the passive side's receive and merge.
//
// Both endpoints run on one goroutine — the passive side sends before
// the active side receives, so no step blocks. Warm-up runs past the
// ring capacity, so the window measures the rings' overwrite path.
func TestFTRoundZeroAllocs(t *testing.T) {
	for _, m := range []int{1, 64} {
		t.Run(fmt.Sprintf("exchange/m=%d", m), func(t *testing.T) {
			active, passive, blocks, flight := tracedPair(t, m)
			ascending := passive.ep.Topology().Ascending(0, 1)
			var got []int64
			step := func() {
				active.view.reset(pairCube, m)
				active.view.set(0, blocks[0])
				passive.view.reset(pairCube, m)
				passive.view.set(1, blocks[1])
				if err := passive.sendParts(0, 0, blocks[1]); err != nil {
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
				t.Errorf("exchange round: %v allocs/op, want 0", n)
			}
			if len(got) != m || got[0] != int64(m) || !passive.view.complete() || flight.Node(1).Len() == 0 {
				t.Errorf("round did not complete: passive adopted %v, view %s", got, passive.view.have.String())
			}
		})
		t.Run(fmt.Sprintf("verify/m=%d", m), func(t *testing.T) {
			active, passive, blocks, flight := tracedPair(t, m)
			step := func() {
				active.view.reset(pairCube, m)
				active.view.set(0, blocks[0])
				passive.view.reset(pairCube, m)
				passive.view.set(1, blocks[1])
				if err := passive.sendVerify(0, 1); err != nil {
					t.Fatal(err)
				}
				if err := active.verifyExchange(0, 0); err != nil {
					t.Fatal(err)
				}
				if err := passive.mergeVerify(0, 0, 0, true); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 80; i++ {
				step()
			}
			if n := testing.AllocsPerRun(200, step); n != 0 {
				t.Errorf("verification round: %v allocs/op, want 0", n)
			}
			if !passive.view.complete() || !active.view.complete() || flight.Node(1).Len() == 0 {
				t.Error("round did not complete")
			}
		})
	}
}
