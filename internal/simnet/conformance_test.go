// Scheduler conformance battery: every Scheduler implementation must
// deliver the same transport contract — no message dropped, duplicated,
// or delivered out of per-link FIFO order unless a fault injector says
// so — and controlled runs must replay bit-identically.
//
// The battery lives in an external test package because it drives the
// schedulers through internal/core and internal/fault, which import
// simnet.
package simnet_test

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/node"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// schedulers under conformance test. The enumerating scheduler used by
// internal/explore is exercised by that package's own tests against
// the same invariants (it cannot appear here without an import cycle
// through explore's test helpers).
func conformanceScheds() map[string]func() simnet.Scheduler {
	return map[string]func() simnet.Scheduler{
		"free":     func() simnet.Scheduler { return nil },
		"random-1": func() simnet.Scheduler { return simnet.NewRandom(1) },
		"random-2": func() simnet.Scheduler { return simnet.NewRandom(2) },
		// replay with no directives: every decision resolves canonically.
		"replay-canonical": func() simnet.Scheduler { return simnet.NewReplay(nil) },
	}
}

// fifoProgram sends count sequenced messages across every cube
// dimension and to the host, and asserts every inbound link stream
// arrives gap-free and in order.
func fifoProgram(count int) func(id int) node.Program {
	return func(id int) node.Program {
		return func(ep transport.Endpoint) error {
			dim := ep.Topology().Dim()
			for i := 0; i < count; i++ {
				for bit := 0; bit < dim; bit++ {
					m := wire.Message{Kind: wire.KindExchange, Stage: 1, Iter: int32(i),
						Payload: wire.EncodeExchange(wire.ExchangePayload{Keys: []int64{int64(i)}})}
					if err := ep.Send(bit, m); err != nil {
						return err
					}
				}
				m := wire.Message{Kind: wire.KindError, Stage: 1, Iter: int32(i),
					Payload: wire.EncodeError(wire.ErrorPayload{Predicate: "conformance", Accused: -1})}
				if err := ep.SendHost(m); err != nil {
					return err
				}
			}
			for bit := 0; bit < dim; bit++ {
				for i := 0; i < count; i++ {
					m, err := ep.Recv(bit)
					if err != nil {
						return fmt.Errorf("recv bit %d iter %d: %w", bit, i, err)
					}
					if int(m.Iter) != i {
						return fmt.Errorf("bit %d: got iter %d, want %d (FIFO violated)", bit, m.Iter, i)
					}
				}
			}
			return nil
		}
	}
}

// TestSchedulerConformanceFIFO runs the battery: under every scheduler,
// per-link streams stay FIFO with no drops or duplicates, and the host
// mailbox preserves per-sender order.
func TestSchedulerConformanceFIFO(t *testing.T) {
	const count = 5
	for name, mk := range conformanceScheds() {
		for _, dim := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/dim%d", name, dim), func(t *testing.T) {
				nw, err := simnet.New(simnet.Config{Dim: dim, Sched: mk()})
				if err != nil {
					t.Fatal(err)
				}
				n := nw.Topology().Nodes()
				progs := make([]node.Program, n)
				for id := 0; id < n; id++ {
					progs[id] = fifoProgram(count)(id)
				}
				res, err := node.RunPer(nw, progs, nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.FirstNodeErr(); err != nil {
					t.Fatalf("node error: %v", err)
				}
				// Host drain: per-sender iters must be gap-free and in
				// order; total count must be exact (no drop, no dup).
				h := nw.Host()
				seen := make(map[int]int)
				total := 0
				for {
					m, ok, err := h.TryRecv()
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					from := int(m.From)
					if int(m.Iter) != seen[from] {
						t.Fatalf("host: sender %d iter %d, want %d (per-sender FIFO violated)", from, m.Iter, seen[from])
					}
					seen[from]++
					total++
				}
				if total != n*count {
					t.Fatalf("host drained %d messages, want %d (drop or dup)", total, n*count)
				}
			})
		}
	}
}

// TestControlledHonestMatchesFree pins schedule-independence of virtual
// time: an honest S_FT run produces the same sorted output and the same
// per-node virtual clocks under the free scheduler and under any
// controlled schedule.
func TestControlledHonestMatchesFree(t *testing.T) {
	for _, dim := range []int{1, 2} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			n := 1 << uint(dim)
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(n - i) // descending input
			}
			run := func(sched simnet.Scheduler) *core.Outcome {
				nw, err := simnet.New(simnet.Config{Dim: dim, Sched: sched})
				if err != nil {
					t.Fatal(err)
				}
				oc, err := core.Run(nw, append([]int64(nil), keys...))
				if err != nil {
					t.Fatal(err)
				}
				return oc
			}
			free := run(nil)
			ctl := run(simnet.NewRandom(7))
			if free.Detected() || ctl.Detected() {
				t.Fatalf("honest run detected a fault: free=%v ctl=%v", free.Detected(), ctl.Detected())
			}
			if err := checker.Verify(keys, ctl.Sorted, true); err != nil {
				t.Fatalf("controlled output not sorted: %v", err)
			}
			if !reflect.DeepEqual(free.Sorted, ctl.Sorted) {
				t.Fatalf("outputs differ: free=%v ctl=%v", free.Sorted, ctl.Sorted)
			}
			for id := range free.Result.Nodes {
				f, c := free.Result.Nodes[id], ctl.Result.Nodes[id]
				if f.Clock != c.Clock || f.CommTicks != c.CommTicks || f.CompTicks != c.CompTicks {
					t.Fatalf("node %d vticks differ: free=(%d,%d,%d) ctl=(%d,%d,%d)",
						id, f.Clock, f.CommTicks, f.CompTicks, c.Clock, c.CommTicks, c.CompTicks)
				}
			}
		})
	}
}

// faultedRun executes S_FT with a key-lie at one node under the given
// scheduler, with flight recording attached, and returns the outcome,
// the recorded schedule, and the forensic dumps.
func faultedRun(t *testing.T, dim int, sched simnet.Scheduler) (*core.Outcome, []simnet.Step, []*forensic.Report) {
	t.Helper()
	n := 1 << uint(dim)
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(n - i)
	}
	spec := fault.Spec{Node: 1, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 999}
	flight := forensic.New(0)
	nw, err := simnet.New(simnet.Config{Dim: dim, Sched: sched, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	opts := make([]core.Options, n)
	opts[spec.Node] = core.Options{SkipChecks: true, Tamper: spec.Tamper()}
	for i := range opts {
		opts[i].Forensic = flight.Node(i)
	}
	oc, err := core.RunWithOptions(nw, keys, opts)
	if err != nil {
		t.Fatal(err)
	}
	return oc, nw.Steps(), flight.Reports()
}

// TestControlledReplayBitIdentical pins the replay guarantee: replaying
// a recorded schedule reproduces the run bit-for-bit — same host
// evidence in the same drain order, same virtual clocks, every replay
// directive consumed, and the same recorded schedule.
func TestControlledReplayBitIdentical(t *testing.T) {
	orig, steps, odumps := faultedRun(t, 2, simnet.NewRandom(3))
	if !orig.Detected() {
		t.Fatal("key-lie run was not detected")
	}
	directives := simnet.PickedActions(steps)
	rs := simnet.NewReplay(directives)
	replay, rsteps, rdumps := faultedRun(t, 2, rs)

	if !reflect.DeepEqual(orig.HostErrors, replay.HostErrors) {
		t.Fatalf("host evidence differs:\n orig: %+v\nreplay: %+v", orig.HostErrors, replay.HostErrors)
	}
	for id := range orig.Result.Nodes {
		o, r := orig.Result.Nodes[id], replay.Result.Nodes[id]
		if o.Clock != r.Clock || o.CommTicks != r.CommTicks || o.CompTicks != r.CompTicks {
			t.Fatalf("node %d vticks differ under replay", id)
		}
	}
	if rs.Matched != len(directives) || rs.Canonical != 0 {
		t.Fatalf("replay not faithful: matched %d/%d, canonical %d", rs.Matched, len(directives), rs.Canonical)
	}
	if !reflect.DeepEqual(simnet.PickedActions(rsteps), directives) {
		t.Fatalf("replayed schedule differs from original:\n orig: %v\nreplay: %v", directives, simnet.PickedActions(rsteps))
	}
	// Forensic dumps must agree on everything the replay determines.
	if len(odumps) != len(rdumps) {
		t.Fatalf("dump count differs: orig %d, replay %d", len(odumps), len(rdumps))
	}
	oj, rj := replayedDumps(t, odumps), replayedDumps(t, rdumps)
	for i := range oj {
		if oj[i] != rj[i] {
			t.Fatalf("forensic dump %d differs under replay:\n orig: %s\nreplay: %s", i, oj[i], rj[i])
		}
	}
}

// replayedDumps renders the part of each dump that a replay determines,
// sorted: the verdict fields, the happens-before chain, and the
// accuser's own ring. The rest is left out because it depends on
// wall-clock timing, not on the schedule. A dump snapshots every ring
// at the instant of the accusation, while nodes the same decision woke
// may still be computing, so their rings can hold more or fewer events
// under the replay. For the same reason two accusations from one batch
// may dump in either order, which also moves Seq.
func replayedDumps(t *testing.T, dumps []*forensic.Report) []string {
	t.Helper()
	out := make([]string, len(dumps))
	for i, d := range dumps {
		r := *d
		r.Seq = 0
		r.Nodes = nil
		for _, log := range d.Nodes {
			if log.Node == d.Accuser {
				r.Nodes = append(r.Nodes, log)
			}
		}
		j, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(j)
	}
	sort.Strings(out)
	return out
}

// TestControlledCrashAbsence pins virtual-time absence: with one node
// crashed, a controlled run terminates promptly (no wall-clock timeout
// cascade) and the survivors detect the absence.
func TestControlledCrashAbsence(t *testing.T) {
	for _, dim := range []int{1, 2} {
		t.Run(fmt.Sprintf("dim%d", dim), func(t *testing.T) {
			n := 1 << uint(dim)
			keys := make([]int64, n)
			for i := range keys {
				keys[i] = int64(n - i)
			}
			nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 5 * time.Second, Sched: simnet.NewRandom(11)})
			if err != nil {
				t.Fatal(err)
			}
			out := make([]int64, n)
			progs := make([]node.Program, n)
			for id := 1; id < n; id++ {
				progs[id] = core.NodeProgram(keys[id:id+1], out[id:id+1], core.Options{})
			}
			start := time.Now()
			res, err := node.RunPer(nw, progs, nil)
			if err != nil {
				t.Fatal(err)
			}
			if elapsed := time.Since(start); elapsed > 2*time.Second {
				t.Fatalf("crash run took %v: absence fell back to the wall-clock watchdog", elapsed)
			}
			detected := false
			for _, o := range res.Nodes {
				if o.Err != nil {
					detected = true
					if !errors.Is(o.Err, transport.ErrAbsent) && !errors.Is(o.Err, core.ErrProtocol) {
						t.Logf("node error (non-absence): %v", o.Err)
					}
				}
			}
			if !detected {
				t.Fatal("no survivor detected the crashed node")
			}
		})
	}
}
