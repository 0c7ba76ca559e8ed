package core

import (
	"testing"
	"time"

	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
)

// tracedPair returns the S_FT runners of a 2-node cube, node 0 (the
// active side of link 0) and node 1 (the passive side), with an
// observer and 64-slot flight recorders attached, as a traced service
// job runs them.
func tracedPair(t *testing.T) (active, passive *sftRunner, flight *forensic.Flight) {
	t.Helper()
	o := obs.New(obs.NewRegistry(), 512)
	flight = forensic.New(64)
	nw, err := simnet.New(simnet.Config{Dim: 1, RecvTimeout: 5 * time.Second, Obs: o.Metrics(), Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	runner := func(id int) *sftRunner {
		ep, err := nw.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		r := &sftRunner{}
		r.Protocol = NewProtocol(ep, r, Options{Obs: o, Forensic: flight.Node(id)})
		return r
	}
	return runner(0), runner(1), flight
}

// TestSFTExchangeRoundZeroAllocs pins one steady-state S_FT
// compare-exchange round at zero allocations: the passive send leg
// (key plus view), the active side's receive, Φ_C merge, compare and
// reply, and the passive side's receive, merge and reply checks. Both
// endpoints run on one goroutine — the passive side sends before the
// active side receives, so no step blocks. Warm-up runs past the ring
// capacity, so the window measures the rings' overwrite path.
func TestSFTExchangeRoundZeroAllocs(t *testing.T) {
	active, passive, flight := tracedPair(t)
	sc := hypercube.Subcube{Dim: 1, Start: 0, End: 1}
	ascending := passive.ep.Topology().Ascending(0, 1)
	var got int64
	step := func() {
		active.view.reset(sc)
		active.view.set(0, 7)
		passive.view.reset(sc)
		passive.view.set(1, 3)
		passive.keyBuf[0] = 3
		if err := passive.sendParts(0, 0, passive.keyBuf[:1]); err != nil {
			t.Fatal(err)
		}
		if _, err := active.ftExchange(7, 0, 0); err != nil {
			t.Fatal(err)
		}
		var err error
		if got, err = passive.passiveReply(3, 0, 0, 0, ascending); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 80; i++ {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("S_FT exchange round: %v allocs/op, want 0", n)
	}
	if got != 7 || !passive.view.complete() || flight.Node(1).Len() == 0 {
		t.Errorf("round did not complete: passive adopted %d, view %s", got, passive.view.have.String())
	}
}

// TestSFTVerifyRoundZeroAllocs pins one steady-state exchange of the
// final verification round at zero allocations: the passive side's
// view, the active side's receive, Φ_C merge and echo, and the passive
// side's receive and merge.
func TestSFTVerifyRoundZeroAllocs(t *testing.T) {
	active, passive, flight := tracedPair(t)
	sc := hypercube.Subcube{Dim: 1, Start: 0, End: 1}
	step := func() {
		active.view.reset(sc)
		active.view.set(0, 3)
		passive.view.reset(sc)
		passive.view.set(1, 7)
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
		t.Errorf("S_FT verification round: %v allocs/op, want 0", n)
	}
	if !passive.view.complete() || !active.view.complete() || flight.Node(1).Len() == 0 {
		t.Error("round did not complete")
	}
}
