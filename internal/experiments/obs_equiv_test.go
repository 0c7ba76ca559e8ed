package experiments

import (
	"encoding/json"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/hostsort"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
	"repro/internal/sortnr"
)

// benchPoint mirrors the virtual-time columns of cmd/benchjson's
// report; the wall-clock columns are machine-dependent and ignored.
type benchPoint struct {
	Name      string `json:"name"`
	VTicks    int64  `json:"vticks"`
	VComm     int64  `json:"vcomm"`
	VComp     int64  `json:"vcomp"`
	Msgs      int64  `json:"msgs"`
	WireBytes int64  `json:"wirebytes"`
}

type benchReport struct {
	Seed   int64        `json:"seed"`
	Points []benchPoint `json:"points"`
}

func loadBaseline(t *testing.T) (map[string]benchPoint, int64) {
	t.Helper()
	raw, err := os.ReadFile("../../BENCH_PR7.json")
	if err != nil {
		t.Skipf("no recorded baseline: %v", err)
	}
	var rep benchReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("BENCH_PR7.json: %v", err)
	}
	pts := make(map[string]benchPoint, len(rep.Points))
	for _, p := range rep.Points {
		pts[p.Name] = p
	}
	return pts, rep.Seed
}

func checkPoint(t *testing.T, pts map[string]benchPoint, name string, m Measurement) {
	t.Helper()
	p, ok := pts[name]
	if !ok {
		t.Fatalf("point %q missing from BENCH_PR7.json", name)
	}
	got := [5]int64{int64(m.Makespan), int64(m.Comm), int64(m.Comp), m.Msgs, m.Bytes}
	want := [5]int64{p.VTicks, p.VComm, p.VComp, p.Msgs, p.WireBytes}
	if got != want {
		t.Errorf("%s: instrumented series (vticks,vcomm,vcomp,msgs,wirebytes) = %v, baseline %v", name, got, want)
	}
}

// TestGoldenSeriesDeterministic runs every point of the golden series
// 20 times and requires one value per point, the pinned one. Virtual
// time that depends on goroutine scheduling (as the host sort's
// arrival-order gather once did) then fails on every run of the test,
// not now and then.
func TestGoldenSeriesDeterministic(t *testing.T) {
	const runs = 20
	pts, seed := loadBaseline(t)
	for _, p := range Pinned {
		seen := make(map[Measurement]int)
		for i := 0; i < runs; i++ {
			got, err := Measure(p.Algo, p.Dim, p.M, seed)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			seen[got]++
		}
		if len(seen) != 1 {
			t.Errorf("%s: %d distinct values in %d runs: %v", p.Name, len(seen), runs, seen)
			continue
		}
		for got := range seen {
			checkPoint(t, pts, p.Name, got)
		}
	}
}

// TestObservedSeriesMatchBaseline pins ISSUE acceptance: the recorded
// virtual-tick series must stay bit-identical when the unified
// observability layer is fully enabled — metrics, stage and round
// counters, Φ recording, and causal flight-recorder tracing all on. Observation
// reads the virtual clocks but must never charge them, and the trace
// trailer every traced message carries must never count as wire bytes.
func TestObservedSeriesMatchBaseline(t *testing.T) {
	pts, seed := loadBaseline(t)
	o := obs.New(obs.NewRegistry(), 1024)
	flight := forensic.New(0)

	obsNet := func(dim int) *simnet.Network {
		nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: runTimeout, Obs: o.Metrics(), Flight: flight})
		if err != nil {
			t.Fatal(err)
		}
		return nw
	}

	for _, p := range Pinned {
		n, m := 1<<uint(p.Dim), p.M
		keys := Keys(n*m, seed)
		nw := obsNet(p.Dim)
		var res *node.Result
		var err error
		switch p.Algo {
		case SNR:
			// S_NR with stage/round counters on every node.
			out := make([]int64, n*m)
			progs := make([]node.Program, n)
			for id := range progs {
				progs[id] = sortnr.NodeProgram(keys[id*m:(id+1)*m], out[id*m:(id+1)*m], sortnr.Options{Obs: o})
			}
			res, err = node.RunPer(nw, progs, nil)
		case SFT:
			// S_FT fully observed: counters, Φ checks, flight records.
			opts := make([]core.Options, n)
			for id := range opts {
				opts[id].Obs = o
				opts[id].Forensic = flight.Node(id)
			}
			var oc *core.Outcome
			if oc, err = core.RunBlocks(nw, keys, m, opts); err == nil {
				if oc.Detected() {
					t.Fatalf("%s: spurious detection", p.Name)
				}
				res = oc.Result
			}
		case HostSort:
			// Host sort: the observability in play is the transport's
			// message counters and flight tracing.
			_, res, err = hostsort.RunHostSort(nw, keys, m)
		default:
			t.Fatalf("%s: no observed run for %v", p.Name, p.Algo)
		}
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		checkPoint(t, pts, p.Name, measurement(p.Algo, m, res))
	}

	// The observer must actually have been fed: an accidentally nil-wired
	// observer would pass the equality checks above vacuously.
	if o.Metrics().Stages.Value() == 0 || o.Metrics().PhiPass[obs.PhiC].Value() == 0 {
		t.Error("stage and Φ counters recorded nothing — observer was not wired through")
	}
	if v := o.Metrics().MsgsTotal[1].Value(); v == 0 {
		t.Error("message counters recorded nothing — transport obs not wired")
	}
	if flight.Node(0).Len() == 0 {
		t.Error("flight recorder captured no events — causal tracing was not wired through")
	}
}
