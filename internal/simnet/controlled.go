package simnet

import (
	"sort"
	"sync"
	"time"

	"repro/internal/transport"
	"repro/internal/wire"
)

// hostWorker is the controller's worker key for the host processor.
const hostWorker = int(wire.HostID)

// cpacket is a message pending in a controlled queue.
type cpacket struct {
	raw     []byte
	arrival Ticks
	from    int
	// seq is the per-(queue, sender) delivery index — the positional
	// identity replay directives match on.
	seq uint64
	// content is the FNV-1a digest of the costed frame bytes (trace
	// trailer excluded), folded into receiver histories and queue
	// hashes for canonical state hashing.
	content uint64
	// kind/stage/iter mirror the pre-fault message header, advisory
	// metadata for human-readable schedules.
	kind  wire.Kind
	stage int32
	iter  int32
}

// cqueue is one controlled delivery queue with per-sender FIFOs. Cube
// links and host downlinks have a unique writer; the host mailbox is
// the multi-writer case whose merge order is the scheduler's to pick.
type cqueue struct {
	sub     map[int][]cpacket
	nextSeq map[int]uint64
}

// senders returns the sorted sender labels with pending packets.
func (q *cqueue) senders() []int {
	out := make([]int, 0, len(q.sub))
	for from, fifo := range q.sub {
		if len(fifo) > 0 {
			out = append(out, from)
		}
	}
	sort.Ints(out)
	return out
}

// pop removes and returns sender from's FIFO head.
func (q *cqueue) pop(from int) (cpacket, bool) {
	fifo := q.sub[from]
	if len(fifo) == 0 {
		return cpacket{}, false
	}
	pkt := fifo[0]
	q.sub[from] = fifo[1:]
	return pkt, true
}

// cresult is what a parked worker wakes up with.
type cresult struct {
	pkt    cpacket
	ok     bool // delivered
	empty  bool // poll resolved "nothing pending"
	absent bool // blocking receive declared absent
}

// wphase is a worker's place in the controller's census.
type wphase uint8

const (
	wIdle wphase = iota
	wRunning
	wParked
	wDone
)

// cworker is one worker's controller-side state: a node program, the
// host program, or an external caller (a drain loop polling the host
// mailbox after the run) parked at a receive.
type cworker struct {
	id    int
	phase wphase
	// external marks a parked caller that was never declared through
	// WorkerStart: it does not count toward quiescence, and waking it
	// restores its prior phase instead of wRunning.
	external  bool
	prevPhase wphase
	poll      bool
	waitQ     QueueID
	// blockClock is the worker's virtual clock at park time; absence
	// cascades fire in (blockClock, id) order, the virtual-time analogue
	// of "the first timer armed expires first".
	blockClock Ticks
	wake       chan cresult

	// Receive-history digests. histSeq is the ordered fold of every
	// observed event; histSum/histXor additionally fold host-mailbox
	// deliveries commutatively, because every consumer of the drained
	// ERROR list canonicalizes order (fault.EarliestEvidence) — two
	// drain interleavings of the same message multiset are the same
	// abstract state, which is exactly what the explorer prunes on.
	histSeq uint64
	histSum uint64
	histXor uint64
}

// controller mediates all delivery for a controlled network: workers
// park at receives, and once every live worker is parked the
// controller fires forced unique-writer FIFO deliveries in a batch
// (they commute — distinct receivers, sole possible next message),
// consults the Scheduler at genuine races, and resolves absence
// deterministically when nothing can ever arrive.
type controller struct {
	net   *Network
	sched Scheduler

	mu      sync.Mutex
	workers map[int]*cworker
	queues  map[QueueID]*cqueue
	// running counts live (started, not done) workers currently
	// executing; zero means quiescent.
	running int
	// live counts started, not-done workers.
	live int

	steps     []Step
	decisions int
}

func newController(net *Network, sched Scheduler) *controller {
	return &controller{
		net:     net,
		sched:   sched,
		workers: make(map[int]*cworker),
		queues:  make(map[QueueID]*cqueue),
	}
}

func (c *controller) worker(id int) *cworker {
	w := c.workers[id]
	if w == nil {
		w = &cworker{id: id, phase: wIdle, wake: make(chan cresult, 1)}
		c.workers[id] = w
	}
	return w
}

func (c *controller) queue(q QueueID) *cqueue {
	cq := c.queues[q]
	if cq == nil {
		cq = &cqueue{sub: make(map[int][]cpacket), nextSeq: make(map[int]uint64)}
		c.queues[q] = cq
	}
	return cq
}

// workerStart declares a live worker before its goroutine runs.
func (c *controller) workerStart(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.worker(id)
	if w.phase == wIdle {
		w.phase = wRunning
		c.running++
		c.live++
	}
}

// workerDone retires a live worker.
func (c *controller) workerDone(id int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.worker(id)
	if w.phase == wRunning {
		c.running--
	}
	if w.phase == wRunning || w.phase == wParked {
		c.live--
	}
	w.phase = wDone
	c.decide()
}

// send appends fault-processed deliveries to a queue. The sender keeps
// running, so no decision can fire here.
func (c *controller) send(from int, q QueueID, deliveries [][]byte, arrival Ticks, kind wire.Kind, stage, iter int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cq := c.queue(q)
	for _, raw := range deliveries {
		seq := cq.nextSeq[from]
		cq.nextSeq[from] = seq + 1
		cq.sub[from] = append(cq.sub[from], cpacket{
			raw: raw, arrival: arrival, from: from, seq: seq,
			content: contentHash(raw), kind: kind, stage: stage, iter: iter,
		})
	}
}

// block parks the calling worker on a queue until the controller hands
// it a delivery, an empty-poll resolution, or absence. poll marks
// non-blocking TryRecv semantics. A wall-clock watchdog at the
// network's receive timeout mirrors free-mode absence as a safety net
// against coordination bugs; a correct controlled run never hits it.
func (c *controller) block(id int, q QueueID, poll bool, clock Ticks) cresult {
	c.mu.Lock()
	w := c.worker(id)
	w.prevPhase = w.phase
	w.external = w.phase != wRunning
	if !w.external {
		c.running--
	}
	w.phase = wParked
	w.poll = poll
	w.waitQ = q
	w.blockClock = clock
	c.decide()
	c.mu.Unlock()

	timer := time.NewTimer(c.net.RecvTimeout())
	defer timer.Stop()
	select {
	case r := <-w.wake:
		return r
	case <-timer.C:
		c.mu.Lock()
		defer c.mu.Unlock()
		select {
		case r := <-w.wake: // decision raced the watchdog; prefer it
			return r
		default:
		}
		c.unpark(w)
		w.histSeq = fnvU64(fnvU64(w.histSeq, tagAbsent), qHash(w.waitQ))
		return cresult{absent: true}
	}
}

// unpark restores a woken worker's running state. Callers hold c.mu.
func (c *controller) unpark(w *cworker) {
	if w.external {
		w.phase = w.prevPhase
		return
	}
	w.phase = wRunning
	c.running++
}

// wake hands a parked worker its result and restores its phase.
func (c *controller) wakeWith(w *cworker, r cresult) {
	c.unpark(w)
	w.wake <- r
}

// parkedSorted returns all parked workers in id order.
func (c *controller) parkedSorted() []*cworker {
	ids := make([]int, 0, len(c.workers))
	for id, w := range c.workers {
		if w.phase == wParked {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	out := make([]*cworker, len(ids))
	for i, id := range ids {
		out[i] = c.workers[id]
	}
	return out
}

// anyLiveBeside reports whether a live (started, not done) worker other
// than w exists — the condition under which a poll may legitimately
// race a future send and "empty" is a real alternative.
func (c *controller) anyLiveBeside(w *cworker) bool {
	for _, o := range c.workers {
		if o != w && !o.external && (o.phase == wRunning || o.phase == wParked) {
			return true
		}
	}
	return false
}

// decide fires the next scheduling action(s) if the network is
// quiescent. Callers hold c.mu.
//
// Phase 1 — forced FIFO: every parked blocking receiver on a
// unique-writer queue (cube link, host downlink) with a pending head
// gets it, all in one batch: each such delivery is the receiver's only
// realizable next message and deliveries to distinct receivers
// commute, so branching here would explore distinctions no execution
// can observe (the DPOR independence argument, DESIGN.md §11).
//
// Phase 2 — host-mailbox decisions, only at full quiescence so the
// pending set is maximal: one head is forced; several sender heads are
// a real race and consult the Scheduler, as is poll-vs-send while
// senders are live. Polls on an empty mailbox resolve empty, matching
// free-running TryRecv.
//
// Phase 3 — absence: nothing can ever arrive, so the parked worker
// transport.Absentee picks, the least by (blockClock, id), is told its
// message is absent, as on the free path; the cascade re-evaluates
// after every wake since a worker told so may send.
func (c *controller) decide() {
	// Keep deciding while the network stays quiescent: waking an
	// external caller (a post-run drain loop) does not make any live
	// worker runnable, so remaining parked workers would otherwise
	// never get their decision. Each firing wakes at least one parked
	// worker and nobody re-parks while we hold the lock, so this
	// terminates.
	for c.running == 0 {
		if !c.decideOnce() {
			return
		}
	}
}

// decideOnce fires at most one batch or decision, reporting whether
// anything fired. Callers hold c.mu and have checked quiescence.
func (c *controller) decideOnce() bool {
	// Phase 1: forced unique-writer FIFO deliveries, batched.
	fired := false
	for _, w := range c.parkedSorted() {
		if w.poll || w.waitQ.Kind == QHostIn {
			continue
		}
		cq := c.queue(w.waitQ)
		from := uniqueWriter(c.net, w.waitQ)
		if pkt, ok := cq.pop(from); ok {
			c.foldDelivery(w, pkt)
			c.wakeWith(w, cresult{pkt: pkt, ok: true})
			fired = true
		}
	}
	if fired {
		return true
	}
	// Phase 2: host-mailbox decisions.
	for _, w := range c.parkedSorted() {
		if w.waitQ.Kind != QHostIn {
			continue
		}
		acts := c.hostActions(w)
		if len(acts) == 0 {
			if w.poll {
				w.histSeq = fnvU64(fnvU64(w.histSeq, tagEmpty), qHash(w.waitQ))
				c.wakeWith(w, cresult{empty: true})
				return true
			}
			continue // blocking host receive on empty mailbox: phase 3
		}
		idx := 0
		if len(acts) > 1 {
			idx = c.consult(acts)
		}
		c.fire(w, acts[idx])
		return true
	}
	// Phase 3: absence.
	parked := c.parkedSorted()
	if i := transport.Absentee(len(parked), func(i int) (Ticks, int, bool) {
		return parked[i].blockClock, parked[i].id, true
	}); i >= 0 {
		victim := parked[i]
		victim.histSeq = fnvU64(fnvU64(victim.histSeq, tagAbsent), qHash(victim.waitQ))
		c.wakeWith(victim, cresult{absent: true})
		return true
	}
	return false
}

// hostActions builds the canonical enabled-action list for a worker
// parked on the host mailbox: one ActDeliver per sender FIFO head,
// plus ActEmpty for polls while other senders are live.
func (c *controller) hostActions(w *cworker) []Action {
	cq := c.queue(w.waitQ)
	var acts []Action
	for _, from := range cq.senders() {
		pkt := cq.sub[from][0]
		acts = append(acts, Action{
			Kind: ActDeliver, Queue: w.waitQ, From: from, Seq: pkt.seq,
			MsgKind: pkt.kind, Stage: pkt.stage, Iter: pkt.iter,
		})
	}
	if w.poll && len(acts) > 0 && c.anyLiveBeside(w) {
		acts = append(acts, Action{Kind: ActEmpty, Queue: w.waitQ})
	}
	sortActions(acts)
	return acts
}

// consult records a Step and asks the Scheduler to pick. Callers hold
// c.mu; the enabled list is already canonically ordered.
func (c *controller) consult(acts []Action) int {
	d := Decision{Point: c.decisions, State: c.stateHash(), Enabled: acts}
	idx := c.sched.Pick(d)
	if idx < 0 || idx >= len(acts) {
		idx = 0
	}
	c.steps = append(c.steps, Step{State: d.State, Enabled: acts, Picked: idx})
	c.decisions++
	return idx
}

// fire executes one chosen action for a parked worker.
func (c *controller) fire(w *cworker, a Action) {
	if a.Kind == ActEmpty {
		w.histSeq = fnvU64(fnvU64(w.histSeq, tagEmpty), qHash(w.waitQ))
		c.wakeWith(w, cresult{empty: true})
		return
	}
	pkt, ok := c.queue(w.waitQ).pop(a.From)
	if !ok { // cannot happen: actions are built from pending heads
		c.wakeWith(w, cresult{absent: true})
		return
	}
	c.foldDelivery(w, pkt)
	c.wakeWith(w, cresult{pkt: pkt, ok: true})
}

// foldDelivery folds a delivered packet into the receiver's history
// digest: commutatively for host-mailbox drains, ordered otherwise.
func (c *controller) foldDelivery(w *cworker, pkt cpacket) {
	e := fnvU64(fnvU64(fnvU64(fnvU64(fnvOffset, qHash(w.waitQ)), uint64(int64(pkt.from))), pkt.content), uint64(pkt.arrival))
	if w.waitQ.Kind == QHostIn {
		w.histSum += e
		w.histXor ^= e
		return
	}
	w.histSeq = fnvU64(w.histSeq, e)
}

// stateHash folds the canonical system state at a quiescent decision
// point: every worker's phase, awaited queue, and receive-history
// digests, plus all pending queue contents (per-sender chains combined
// commutatively — a pending multiset, like the mailbox it models).
func (c *controller) stateHash() uint64 {
	ids := make([]int, 0, len(c.workers))
	for id := range c.workers {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := fnvOffset
	for _, id := range ids {
		w := c.workers[id]
		h = fnvU64(h, uint64(int64(id)))
		h = fnvU64(h, uint64(w.phase))
		if w.phase == wParked {
			h = fnvU64(h, qHash(w.waitQ))
		}
		h = fnvU64(h, w.histSeq)
		h = fnvU64(h, w.histSum)
		h = fnvU64(h, w.histXor)
	}
	qids := make([]QueueID, 0, len(c.queues))
	for q := range c.queues {
		qids = append(qids, q)
	}
	sort.Slice(qids, func(i, j int) bool {
		a, b := qids[i], qids[j]
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Bit < b.Bit
	})
	for _, qid := range qids {
		cq := c.queues[qid]
		var sum, xor uint64
		for from, fifo := range cq.sub {
			if len(fifo) == 0 {
				continue
			}
			chain := fnvU64(fnvOffset, uint64(int64(from)))
			for _, pkt := range fifo {
				chain = fnvU64(chain, pkt.content)
			}
			sum += chain
			xor ^= chain
		}
		if sum != 0 || xor != 0 {
			h = fnvU64(h, qHash(qid))
			h = fnvU64(h, sum)
			h = fnvU64(h, xor)
		}
	}
	return h
}

// stepsSnapshot copies the recorded schedule.
func (c *controller) stepsSnapshot() []Step {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Step, len(c.steps))
	copy(out, c.steps)
	return out
}

// uniqueWriter names the sole sender of a unique-writer queue.
func uniqueWriter(net *Network, q QueueID) int {
	switch q.Kind {
	case QHostOut:
		return hostWorker
	default: // QLink
		partner, _ := net.Topology().Partner(q.Node, q.Bit)
		return partner
	}
}

// --- hashing helpers --------------------------------------------------------

const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211

	tagAbsent uint64 = 0x61627300 // "abs"
	tagEmpty  uint64 = 0x656d7000 // "emp"
)

// fnvU64 folds one 64-bit value into an FNV-1a hash, byte by byte.
func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime
		v >>= 8
	}
	return h
}

// contentHash digests the costed bytes of a frame (the trace trailer
// rides for free here exactly as it does in the cost model, so traced
// and untraced runs hash identically).
func contentHash(raw []byte) uint64 {
	h := fnvOffset
	for _, b := range raw[:wire.CostedLen(len(raw))] {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// qHash folds a queue identity into a single word.
func qHash(q QueueID) uint64 {
	return uint64(q.Kind)<<32 ^ uint64(uint32(q.Node))<<8 ^ uint64(uint32(q.Bit))
}

// --- Network surface --------------------------------------------------------

// WorkerStart implements transport.WorkerControl: it declares a live
// worker before its goroutine launches, in the controller's census
// under a scheduler and in the core's free-running one otherwise
// (transport.Core.WorkerStart). Either way the absence rule waits until
// every declared, live worker is parked at a receive.
func (nw *Network) WorkerStart(id int) {
	if nw.ctrl != nil {
		nw.ctrl.workerStart(id)
		return
	}
	nw.Core.WorkerStart(id)
}

// WorkerDone implements transport.WorkerControl: it retires a started
// worker, whose last delivered buffer goes back to the free lists, in
// the census WorkerStart declared it in. WorkerDone allocates nothing.
func (nw *Network) WorkerDone(id int) {
	if p := nw.proc(id); p != nil {
		p.release()
	}
	if nw.ctrl != nil {
		nw.ctrl.workerDone(id)
		return
	}
	nw.Core.WorkerDone(id)
}

// Steps returns the schedule a controlled run recorded: one Step per
// consulted scheduling decision, in order. Free-running networks
// return nil — their delivery races are decided by the OS scheduler
// and cannot be replayed.
func (nw *Network) Steps() []Step {
	if nw.ctrl == nil {
		return nil
	}
	return nw.ctrl.stepsSnapshot()
}
