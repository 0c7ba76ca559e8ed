// Package node runs every simulated node processor's program on a
// goroutine of its own plus an optional host goroutine, and collects
// per-node outcomes and virtual clocks. It is the execution harness
// shared by every algorithm in the repository (S_NR, S_FT, host
// baselines, block sorting). A run starts one goroutine per node,
// unless the network's node labels keep resident goroutines (Crew).
package node

import (
	"fmt"
	"sync"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Program is the code a node processor executes. It runs in its own
// goroutine against its private endpoint; all inter-node interaction
// flows through the endpoint, mirroring a multicomputer's private
// memory model.
type Program func(ep transport.Endpoint) error

// HostProgram is the code the host processor executes.
type HostProgram func(h transport.Host) error

// NodeOutcome captures one node's result: its terminal error (nil on
// success) and its final virtual clocks.
type NodeOutcome struct {
	Err       error
	Clock     transport.Ticks
	CommTicks transport.Ticks
	CompTicks transport.Ticks
}

// Result aggregates a whole run.
type Result struct {
	Nodes []NodeOutcome
	// HostErr is the host program's terminal error, nil when no host
	// program ran or it succeeded.
	HostErr error
	// HostClock, HostComm, HostComp are the host's virtual clocks.
	HostClock transport.Ticks
	HostComm  transport.Ticks
	HostComp  transport.Ticks
	// Metrics is the network traffic snapshot at run end.
	Metrics transport.MetricsSnapshot
}

// Makespan returns the run's virtual completion time: the maximum of
// every node clock and the host clock.
func (r *Result) Makespan() transport.Ticks {
	max := r.HostClock
	for _, n := range r.Nodes {
		if n.Clock > max {
			max = n.Clock
		}
	}
	return max
}

// FirstNodeErr returns the error of the lowest-numbered failed node,
// or nil when every node succeeded.
func (r *Result) FirstNodeErr() error {
	for id, n := range r.Nodes {
		if n.Err != nil {
			return fmt.Errorf("node %d: %w", id, n.Err)
		}
	}
	return nil
}

// AnyErr returns the first node error or the host error, nil if none.
func (r *Result) AnyErr() error {
	if err := r.FirstNodeErr(); err != nil {
		return err
	}
	return r.HostErr
}

// TotalNodeComm sums communication ticks across all nodes.
func (r *Result) TotalNodeComm() transport.Ticks {
	var t transport.Ticks
	for _, n := range r.Nodes {
		t += n.CommTicks
	}
	return t
}

// TotalNodeComp sums computation ticks across all nodes.
func (r *Result) TotalNodeComp() transport.Ticks {
	var t transport.Ticks
	for _, n := range r.Nodes {
		t += n.CompTicks
	}
	return t
}

// MaxNodeComm returns the largest per-node communication tick count —
// the per-node comm time of the critical path, which is what the
// paper's component-time table reports.
func (r *Result) MaxNodeComm() transport.Ticks {
	var t transport.Ticks
	for _, n := range r.Nodes {
		if n.CommTicks > t {
			t = n.CommTicks
		}
	}
	return t
}

// MaxNodeComp returns the largest per-node computation tick count.
func (r *Result) MaxNodeComp() transport.Ticks {
	var t transport.Ticks
	for _, n := range r.Nodes {
		if n.CompTicks > t {
			t = n.CompTicks
		}
	}
	return t
}

// Run executes prog on every node of the network (and hostProg on the
// host when non-nil), waits for all of them, and returns the collected
// outcomes. A panic inside a node program is converted into that
// node's error so a misbehaving (fault-injected) node cannot take the
// harness down. Programs may be nil per node via RunPer.
func Run(nw transport.Network, prog Program, hostProg HostProgram) (*Result, error) {
	n := nw.Topology().Nodes()
	progs := make([]Program, n)
	for i := range progs {
		progs[i] = prog
	}
	return RunPer(nw, progs, hostProg)
}

// Crew is optionally implemented by a network whose node labels each
// keep a resident goroutine (internal/server's pooled networks). RunPer
// then hands node id's run to Go instead of starting a goroutine; the
// census, the outcome collection and the wait stay RunPer's.
type Crew interface {
	// Go runs work(id) on node id's resident goroutine, which runs
	// nothing else until work returns.
	Go(id int, work func(id int))
}

// RunPer is Run with a distinct program per node, used by the fault
// injector to replace selected nodes with Byzantine variants. A nil
// program models a crashed (fail-stop, silent) node: it performs no
// protocol actions at all.
func RunPer(nw transport.Network, progs []Program, hostProg HostProgram) (*Result, error) {
	n := nw.Topology().Nodes()
	if len(progs) != n {
		return nil, fmt.Errorf("node: %d programs for %d nodes", len(progs), n)
	}
	eps := make([]transport.Endpoint, n)
	for id := 0; id < n; id++ {
		ep, err := nw.Endpoint(id)
		if err != nil {
			return nil, fmt.Errorf("node: %w", err)
		}
		eps[id] = ep
	}
	host := nw.Host()

	// The network needs the full worker census before any worker runs:
	// simnet decides absence, and under a controlled scheduler every
	// delivery, only once every live worker has blocked, so a
	// late-declared worker would let a decision fire on an incomplete
	// picture. A crashed node (nil program) is never declared, so its
	// partners' receives resolve as absent once everyone else waits.
	for id := 0; id < n; id++ {
		if progs[id] != nil {
			nw.WorkerStart(id)
		}
	}
	if hostProg != nil {
		nw.WorkerStart(int(wire.HostID))
	}

	res := &Result{Nodes: make([]NodeOutcome, n)}
	var wg sync.WaitGroup
	work := func(id int) {
		defer wg.Done()
		defer nw.WorkerDone(id)
		res.Nodes[id].Err = runGuarded(id, progs[id], eps[id])
	}
	crew, _ := nw.(Crew)
	for id := 0; id < n; id++ {
		if progs[id] == nil {
			continue
		}
		wg.Add(1)
		if crew != nil {
			crew.Go(id, work)
		} else {
			go work(id)
		}
	}
	if hostProg != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer nw.WorkerDone(int(wire.HostID))
			res.HostErr = runHostGuarded(hostProg, host)
		}()
	}
	wg.Wait()

	for id := 0; id < n; id++ {
		res.Nodes[id].Clock = eps[id].Clock()
		res.Nodes[id].CommTicks = eps[id].CommTicks()
		res.Nodes[id].CompTicks = eps[id].CompTicks()
	}
	res.HostClock = host.Clock()
	res.HostComm = host.CommTicks()
	res.HostComp = host.CompTicks()
	res.Metrics = nw.Metrics()
	return res, nil
}

func runGuarded(id int, prog Program, ep transport.Endpoint) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("node %d: program panicked: %v", id, r)
		}
	}()
	return prog(ep)
}

func runHostGuarded(prog HostProgram, h transport.Host) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("host: program panicked: %v", r)
		}
	}()
	return prog(h)
}
