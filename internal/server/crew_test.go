package server

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/reliablesort"
	"repro/internal/transport"
)

// pooledJobAllocs bounds the heap allocations of one job on a warm
// pooled network. A job makes 27 at m = 4 and at m = 256 alike: the
// request and its queue entry, the recovery supervisor's plan and
// report, the attempt's padded input and output, the run's program
// closures and result, and the reply. None is a node arena, a
// local-sort buffer, a receive timer, an endpoint or host handle, a
// traffic snapshot or a spare label. The bound leaves 8 for the
// runtime's own variation, fewer than the 12 that reallocating the
// four nodes' arenas would add.
const pooledJobAllocs = 35

// TestPooledJobAllocs pins what a job costs the heap once its pooled
// network is warm: its node programs run on the network's resident
// workers, in runners whose arenas already fit, so neither the block
// length nor the node count adds an allocation.
func TestPooledJobAllocs(t *testing.T) {
	cfg := testConfig()
	cfg.Concurrency = 1
	s := New(cfg)
	defer s.Close()
	if err := s.Warm(2, 1); err != nil {
		t.Fatal(err)
	}
	for _, m := range []int{4, 256} {
		keys := make([]int64, 4*m)
		for i := range keys {
			keys[i] = int64((i * 7919) % 1009)
		}
		req := Request{Keys: keys, Dim: 2}
		submit := func() {
			if _, err := s.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
		// Grow the runners to m and fill the frame free lists.
		for i := 0; i < 3; i++ {
			submit()
		}
		if n := testing.AllocsPerRun(20, submit); n > pooledJobAllocs {
			t.Errorf("m=%d: %.1f allocs per pooled job, want at most %d", m, n, pooledJobAllocs)
		}
	}
	if st := s.Stats().Pool; st.Built != 1 {
		t.Errorf("jobs built networks beyond the warm one: %+v", st)
	}
}

// goid returns the calling goroutine's id, from its stack header
// ("goroutine N [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// TestCrewKeepsNodeGoroutines: on a pooled network every node's program
// runs on that node's resident goroutine, the same one run after run,
// and a program that panics becomes its node's error while the
// goroutine lives on to serve the network's next run. A worker that
// had died would leave the next run's hand-off blocked forever.
func TestCrewKeepsNodeGoroutines(t *testing.T) {
	p := NewPool(nil, 1, nil)
	defer p.Close()
	cfg := reliablesort.NetConfig{Dim: 1, RecvTimeout: time.Second}
	var ids [2][2]string // [run][node]
	prog := func(run, id int, panics bool) node.Program {
		return func(transport.Endpoint) error {
			ids[run][id] = goid()
			if panics {
				panic("boom")
			}
			return nil
		}
	}

	var c *crew
	for run := 0; run < 2; run++ {
		nw, err := p.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		l := nw.(*lease)
		if run == 0 {
			c = l.crew
		} else if l.crew != c {
			t.Fatal("the pool did not hand the same network and crew back")
		}
		res, err := node.RunPer(nw, []node.Program{prog(run, 0, run == 0), prog(run, 1, false)}, nil)
		l.Close()
		if err != nil {
			t.Fatal(err)
		}
		if e := res.Nodes[0].Err; run == 0 && (e == nil || !strings.Contains(e.Error(), "panicked")) {
			t.Fatalf("panicking node reported %v, want a panic error", e)
		}
		if err := res.Nodes[1].Err; err != nil {
			t.Fatalf("run %d: node 1: %v", run, err)
		}
	}
	if ids[0] != ids[1] || ids[0][0] == ids[0][1] || ids[0][0] == goid() || ids[0][1] == goid() {
		t.Errorf("node goroutines by run %v: want one resident goroutine per node, kept across runs", ids)
	}
}
