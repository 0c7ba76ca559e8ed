package experiments

import (
	"encoding/json"
	"fmt"
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
	type series struct {
		name    string
		measure func() (Measurement, error)
	}
	var all []series
	for _, dim := range []int{2, 3, 4, 5} {
		n := 1 << uint(dim)
		all = append(all,
			series{fmt.Sprintf("Fig6_SNR/N=%d", n), func() (Measurement, error) { return MeasureSNR(dim, seed) }},
			series{fmt.Sprintf("Fig6_SFT/N=%d", n), func() (Measurement, error) { return MeasureSFT(dim, seed) }},
			series{fmt.Sprintf("Fig6_HostSort/N=%d", n), func() (Measurement, error) { return MeasureHostSort(dim, seed) }},
		)
	}
	const m = 64
	for _, dim := range []int{2, 3, 4} {
		n := 1 << uint(dim)
		all = append(all,
			series{fmt.Sprintf("Fig8_BlockNR/N=%d/m=64", n), func() (Measurement, error) { return MeasureBlockNR(dim, m, seed) }},
			series{fmt.Sprintf("Fig8_BlockFT/N=%d/m=64", n), func() (Measurement, error) { return MeasureBlockFT(dim, m, seed) }},
			series{fmt.Sprintf("Fig8_HostBlocks/N=%d/m=64", n), func() (Measurement, error) { return MeasureHostSortBlocks(dim, m, seed) }},
		)
	}
	for _, s := range all {
		seen := make(map[Measurement]int)
		for i := 0; i < runs; i++ {
			got, err := s.measure()
			if err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			seen[got]++
		}
		if len(seen) != 1 {
			t.Errorf("%s: %d distinct values in %d runs: %v", s.name, len(seen), runs, seen)
			continue
		}
		for got := range seen {
			checkPoint(t, pts, s.name, got)
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

	for _, dim := range []int{2, 3, 4, 5} {
		n := 1 << uint(dim)

		// S_NR with stage/round counters on every node.
		keys := Keys(n, seed)
		out := make([]int64, n)
		progs := make([]node.Program, n)
		for id := 0; id < n; id++ {
			progs[id] = sortnr.NodeProgram(keys[id], &out[id], sortnr.Options{Obs: o})
		}
		res, err := node.RunPer(obsNet(dim), progs, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkPoint(t, pts, fmt.Sprintf("Fig6_SNR/N=%d", n), Measurement{
			Makespan: res.Makespan(), Comm: res.MaxNodeComm(), Comp: res.MaxNodeComp(),
			Msgs: res.Metrics.TotalMsgs(), Bytes: res.Metrics.TotalBytes(),
		})

		// S_FT with the full event stream: counters, Φ checks, stage views.
		keys = Keys(n, seed)
		copts := make([]core.Options, n)
		for id := range copts {
			copts[id].Obs = o
			copts[id].Forensic = flight.Node(id)
		}
		oc, err := core.RunWithOptions(obsNet(dim), keys, copts)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Detected() {
			t.Fatalf("N=%d: spurious detection", n)
		}
		checkPoint(t, pts, fmt.Sprintf("Fig6_SFT/N=%d", n), Measurement{
			Makespan: oc.Result.Makespan(), Comm: oc.Result.MaxNodeComm(), Comp: oc.Result.MaxNodeComp(),
			Msgs: oc.Result.Metrics.TotalMsgs(), Bytes: oc.Result.Metrics.TotalBytes(),
		})

		// Host sort: the observability in play is the transport's
		// message counters and flight tracing.
		keys = Keys(n, seed)
		_, hres, err := hostsort.RunHostSort(obsNet(dim), keys)
		if err != nil {
			t.Fatal(err)
		}
		checkPoint(t, pts, fmt.Sprintf("Fig6_HostSort/N=%d", n), Measurement{
			Makespan: hres.Makespan(), Comm: hres.HostComm, Comp: hres.HostComp,
			Msgs: hres.Metrics.TotalMsgs(), Bytes: hres.Metrics.TotalBytes(),
		})
	}

	const m = 64
	for _, dim := range []int{2, 3, 4} {
		n := 1 << uint(dim)

		// Block S_NR: RunBlocks takes no per-node options; the
		// observability in play is the transport's message counters.
		keys := Keys(n*m, seed)
		_, res, err := sortnr.RunBlocks(obsNet(dim), keys, m)
		if err != nil {
			t.Fatal(err)
		}
		checkPoint(t, pts, fmt.Sprintf("Fig8_BlockNR/N=%d/m=64", n), Measurement{
			Makespan: res.Makespan(), Comm: res.MaxNodeComm(), Comp: res.MaxNodeComp(),
			Msgs: res.Metrics.TotalMsgs(), Bytes: res.Metrics.TotalBytes(),
		})

		// Block S_FT with the full event stream.
		bopts := make([]core.Options, n)
		for id := range bopts {
			bopts[id].Obs = o
			bopts[id].Forensic = flight.Node(id)
		}
		oc, err := core.RunBlocks(obsNet(dim), keys, m, bopts)
		if err != nil {
			t.Fatal(err)
		}
		if oc.Detected() {
			t.Fatalf("block N=%d: spurious detection", n)
		}
		checkPoint(t, pts, fmt.Sprintf("Fig8_BlockFT/N=%d/m=64", n), Measurement{
			Makespan: oc.Result.Makespan(), Comm: oc.Result.MaxNodeComm(), Comp: oc.Result.MaxNodeComp(),
			Msgs: oc.Result.Metrics.TotalMsgs(), Bytes: oc.Result.Metrics.TotalBytes(),
		})

		// Host block sort, likewise.
		blocks := Blocks(n, m, seed)
		_, hres, err := hostsort.RunHostSortBlocks(obsNet(dim), blocks)
		if err != nil {
			t.Fatal(err)
		}
		checkPoint(t, pts, fmt.Sprintf("Fig8_HostBlocks/N=%d/m=64", n), Measurement{
			Makespan: hres.Makespan(), Comm: hres.HostComm, Comp: hres.HostComp,
			Msgs: hres.Metrics.TotalMsgs(), Bytes: hres.Metrics.TotalBytes(),
		})
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
