package core_test

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/reliablesort"
	"repro/internal/server"
	"repro/internal/simnet"
	"repro/internal/transport"
)

// keptRun is what one run reports that a kept runner could corrupt by
// reading stale state: the output, the clocks, the traffic, the host
// evidence with its judgement, and the flight records.
type keptRun struct {
	sorted   []int64
	nodes    []transport.Ticks // per node: clock, comm, comp
	msgs     int64
	bytes    int64
	evidence []core.HostError
	verdict  fault.Verdict
	accused  int
	detector string
	// rings are every node's flight records after the run; reports
	// are the accusations' dumps without the ring snapshots each took
	// at its wall-clock instant, in (accuser, stage, iter) order.
	rings   []forensic.NodeLog
	reports []forensic.Report
}

func runKept(t *testing.T, nw transport.Network, flight *forensic.Flight, keys []int64, m int, inject func(attempt, dim int, physical []int) []core.Options) keptRun {
	t.Helper()
	n := nw.Topology().Nodes()
	var opts []core.Options
	if inject != nil {
		physical := make([]int, n)
		for id := range physical {
			physical[id] = id
		}
		opts = inject(0, nw.Topology().Dim(), physical)
	}
	if opts == nil {
		opts = make([]core.Options, n)
	}
	for id := range opts {
		opts[id].Forensic = flight.Node(id)
	}
	oc, err := core.RunBlocks(nw, keys, m, opts)
	if err != nil {
		t.Fatal(err)
	}
	res := fault.Classify(oc, checker.Verify(keys, oc.Sorted, true), flight)
	fault.SortEvidence(oc.HostErrors)
	run := keptRun{
		sorted: oc.Sorted, msgs: oc.Result.Metrics.TotalMsgs(), bytes: oc.Result.Metrics.TotalBytes(),
		evidence: oc.HostErrors, verdict: res.Verdict, accused: res.Accused, detector: res.Detector,
	}
	for _, o := range oc.Result.Nodes {
		run.nodes = append(run.nodes, o.Clock, o.CommTicks, o.CompTicks)
	}
	for _, rep := range flight.Reports() {
		r := *rep
		r.Seq, r.Nodes = 0, nil
		run.reports = append(run.reports, r)
	}
	slices.SortFunc(run.reports, func(a, b forensic.Report) int {
		return cmp.Or(cmp.Compare(a.Accuser, b.Accuser), core.ComparePoints(int(a.Stage), int(a.Iter), int(b.Stage), int(b.Iter)))
	})
	// A supervisor-level dump after the run snapshots every ring whole.
	run.rings = flight.Quarantine(-1, 0, "snapshot").Nodes
	return run
}

// TestKeptRunnersNeverReadStaleArenas runs three jobs on one pooled
// network, whose resident workers keep one runner per node: m = 256,
// then m = 4 with a persistent key-lie armed through the job's fault
// injector, then an honest m = 16. Before each job every kept runner's
// arenas are poisoned with a sentinel. Each job must report exactly
// what a one-shot core.RunBlocks of the same input on a fresh simnet
// reports: output, every node's clocks, messages, wire bytes, host
// evidence, verdict and accused node, and the flight records.
func TestKeptRunnersNeverReadStaleArenas(t *testing.T) {
	const timeout = 5 * time.Second
	pool := server.NewPool(nil, 1, obs.NewRegistry())
	defer pool.Close()
	flight := forensic.New(0)
	cfg := reliablesort.NetConfig{Dim: 2, RecvTimeout: timeout, Flight: flight}
	lie := fault.Follow(fault.Set{{
		Name: "key-lie/n1", Class: fault.ClassMessage,
		Msg: &fault.Spec{Node: 1, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 999999},
	}}, true)
	jobs := []struct {
		m      int
		inject func(attempt, dim int, physical []int) []core.Options
	}{{256, nil}, {4, lie}, {16, nil}}

	rng := rand.New(rand.NewSource(26))
	for i, job := range jobs {
		keys := make([]int64, 4*job.m)
		for k := range keys {
			keys[k] = rng.Int63n(2000) - 1000
		}
		nw, err := pool.Get(cfg)
		if err != nil {
			t.Fatal(err)
		}
		kept, ok := nw.(core.Runners)
		if !ok {
			t.Fatal("a pooled network keeps no runners")
		}
		for id := 0; id < 4; id++ {
			kept.Runner(id).Poison(math.MinInt64 + 7)
		}
		flight.Reset()
		got := runKept(t, nw, flight, keys, job.m, job.inject)
		// Keep the network even after the lie, so every job runs in
		// the same runners; the server would quarantine it instead.
		nw.(interface{ Release(bool) }).Release(true)

		refFlight := forensic.New(0)
		ref, err := simnet.New(simnet.Config{Dim: 2, RecvTimeout: timeout, Flight: refFlight})
		if err != nil {
			t.Fatal(err)
		}
		want := runKept(t, ref, refFlight, keys, job.m, job.inject)

		wantVerdict := fault.CorrectDespiteFault
		if job.inject != nil {
			wantVerdict = fault.Detected
		}
		if want.verdict != wantVerdict {
			t.Fatalf("job %d: one-shot reference verdict %v, want %v", i, want.verdict, wantVerdict)
		}
		if job.inject != nil && want.accused != 1 {
			t.Fatalf("job %d: one-shot reference accuses %d, want the liar 1", i, want.accused)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("job %d (m=%d): the pooled run differs from a one-shot run\npooled:   %+v\none-shot: %+v", i, job.m, got, want)
		}
	}
	if st := pool.Stats(); st.Built != 1 || st.Reused != 2 {
		t.Errorf("jobs did not share one pooled network: %+v", st)
	}
}
