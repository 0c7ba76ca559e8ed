package server

import (
	"sync"

	"repro/internal/core"
)

// crew is a pooled network's resident node workers: per node label, one
// goroutine that runs the label's node programs, and the core.Runner
// whose arenas those programs reuse. The pool starts a crew when it
// builds the network and stops it when it discards the network, so a
// job on a pooled network starts no goroutine, and once the runners
// have grown to its block length it allocates no node arena. A network
// serves one attempt per checkout, and node.RunPer waits for every
// node's run before it returns, so a runner never serves two runs at
// once.
type crew struct {
	work    []chan func(id int)
	runners []core.Runner
	wg      sync.WaitGroup
}

// newCrew starts the resident workers of an n-node network.
func newCrew(n int) *crew {
	c := &crew{work: make([]chan func(int), n), runners: make([]core.Runner, n)}
	c.wg.Add(n)
	for id := range c.work {
		in := make(chan func(int))
		c.work[id] = in
		go c.serve(id, in)
	}
	return c
}

// serve is node id's resident worker: it runs each run handed to it
// until stop closes its inbox. A run does not panic out of it, since
// node.RunPer turns a program's panic into the node's error.
func (c *crew) serve(id int, in <-chan func(int)) {
	defer c.wg.Done()
	for work := range in {
		work(id)
	}
}

// Go implements node.Crew.
func (c *crew) Go(id int, work func(id int)) { c.work[id] <- work }

// Runner implements core.Runners.
func (c *crew) Runner(id int) *core.Runner { return &c.runners[id] }

// stop ends every worker and waits for them to exit. The pool calls it
// only for a network no attempt holds, so every worker is idle.
func (c *crew) stop() {
	for _, in := range c.work {
		close(in)
	}
	c.wg.Wait()
}
