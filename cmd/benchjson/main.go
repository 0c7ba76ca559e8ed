// Command benchjson runs the paper's measurement suite under the Go
// benchmark harness and emits a machine-readable JSON report: for each
// point of the golden series (experiments.Pinned) the wall-clock
// ns/op and allocs/op (simulator performance) plus the paper-facing
// virtual-tick series (vticks, vcomm, vcomp, msgs, wirebytes), which
// is what the figures plot, followed by the predicate/merge
// microbenchmarks.
//
// The two acceptance points carry embedded pre-optimization baselines
// (medians of three 30-iteration runs on the reference machine) so the
// report doubles as a before/after record. The report goes to stdout
// unless -o names a file:
//
//	go run ./cmd/benchjson -o report.json
//
// With -baseline pointing at a committed report, the run additionally
// fails if any Fig6_SFT or Fig8_BlockFT point's allocs_per_op regressed
// against it — the CI bench-regression gate. A gated point's
// allocs_per_op and bytes_per_op are the fewest any one of gateRuns
// single sorts made, not the benchmark's mean (see gateRuns).
//
// See EXPERIMENTS.md ("Performance methodology") for how to read the
// output and why the virtual-tick columns must only change when a PR
// deliberately re-pins them (as the digest fast-path PR does).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bitonic"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/wire"
)

// Point is one benchmark result row.
type Point struct {
	Name        string `json:"name"`
	N           int    `json:"n"`
	M           int    `json:"m"`
	Iters       int    `json:"iters"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`

	// Paper-facing virtual-time series: identical across performance
	// changes by construction (byte-identical wire encodings).
	VTicks    int64 `json:"vticks"`
	VComm     int64 `json:"vcomm"`
	VComp     int64 `json:"vcomp"`
	Msgs      int64 `json:"msgs"`
	WireBytes int64 `json:"wirebytes"`
}

// Acceptance is a before/after comparison against an embedded
// pre-optimization baseline.
type Acceptance struct {
	Name              string  `json:"name"`
	BaselineNsPerOp   int64   `json:"baseline_ns_per_op"`
	NsPerOp           int64   `json:"ns_per_op"`
	ImprovementPct    float64 `json:"improvement_pct"`
	BaselineAllocsOp  int64   `json:"baseline_allocs_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	AllocReductionPct float64 `json:"alloc_reduction_pct"`
}

// Report is the full output document.
type Report struct {
	Suite      string       `json:"suite"`
	GoVersion  string       `json:"go_version"`
	GOOS       string       `json:"goos"`
	GOARCH     string       `json:"goarch"`
	Seed       int64        `json:"seed"`
	Points     []Point      `json:"points"`
	Acceptance []Acceptance `json:"acceptance"`
}

const benchSeed = 1989

// gateRuns is how many single sorts a gated point's alloc counts are
// the minimum of. Extra allocations only ever add to a sort's count:
// the Go runtime refills its goroutine and sudog caches after a GC,
// and simnet makes a receive timer or a frame buffer only when a
// receive finds its queue empty or a size class has no idle buffer,
// which depends on goroutine scheduling. The benchmark's mean carries
// that noise. The sorts run on one P, which makes the schedule, and so
// the timer and buffer reuse, nearly the same every time and
// independent of the machine's CPU count; the minimum over them is the
// program's own count.
const gateRuns = 100

// baseline holds the pre-optimization numbers for the acceptance
// points, measured immediately before the digest fast path and the
// data-parallel merge landed (same machine, Linux amd64). They are
// embedded so the report is self-contained.
var baseline = map[string]struct {
	nsPerOp  int64
	allocsOp int64
}{
	"Fig6_SFT/N=32":          {nsPerOp: 1415392, allocsOp: 2042},
	"Fig8_BlockFT/N=16/m=64": {nsPerOp: 4875750, allocsOp: 1777},
}

// microSuite enumerates the predicate/merge microbenchmarks exported
// alongside the protocol points: the Φ_F slow paths (map and
// two-pointer feasibility), the digest fast path (steady-state compare
// and from-scratch maintenance), and the sequential vs parallel
// merge-split. Micro rows have no virtual-time series (vticks = 0).
type microCase struct {
	name string
	n    int
	run  func(b *testing.B)
}

func microSuite() []microCase {
	const n = 4096
	rng := rand.New(rand.NewSource(benchSeed))
	prev := make([]int64, n)
	for i := range prev {
		prev[i] = int64(rng.Intn(n / 2)) // duplicates keep the map path honest
	}
	cur := append([]int64{}, prev...)
	rng.Shuffle(n, func(i, j int) { cur[i], cur[j] = cur[j], cur[i] })
	sortedPrev, _ := bitonic.MergeSortCount(prev)
	sortedCur, _ := bitonic.MergeSortCount(cur)
	prevDig, curDig := wire.DigestOf(prev), wire.DigestOf(cur)

	const mm = 1 << 15
	a := make([]int64, mm)
	b2 := make([]int64, mm)
	for i := range a {
		a[i] = int64(2 * i)
		b2[i] = int64(2*i + 1)
	}
	dst := make([]int64, 2*mm)

	return []microCase{
		{fmt.Sprintf("Micro_PhiF_Map/n=%d", n), n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := core.Feasibility(prev, cur); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{fmt.Sprintf("Micro_PhiF_TwoPointer/n=%d", n), n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := core.FeasibilityTwoPointer(sortedPrev, sortedCur); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{fmt.Sprintf("Micro_PhiF_DigestCompare/n=%d", n), n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if prevDig != curDig {
					b.Fatal("digests of equal multisets differ")
				}
			}
		}},
		{fmt.Sprintf("Micro_Digest_Maintain/n=%d", n), n, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if wire.DigestOf(cur) != prevDig {
					b.Fatal("digest mismatch")
				}
			}
		}},
		{fmt.Sprintf("Micro_MergeSplit_Seq/m=%d", mm), mm, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := bitonic.MergeSplitInto(dst[:0], a, b2); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{fmt.Sprintf("Micro_MergeSplit_Par/m=%d", mm), mm, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, _, err := bitonic.MergeSplitParallelInto(dst[:0], a, b2, 0); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

func main() {
	out := flag.String("o", "-", "output file ('-' for stdout)")
	basePath := flag.String("baseline", "", "committed report to gate allocs_per_op regressions against (Fig6_SFT and Fig8_BlockFT points)")
	flag.Parse()

	rep := Report{
		Suite:     "reliable-distributed-sorting paper benchmarks",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		Seed:      benchSeed,
	}
	for _, c := range experiments.Pinned {
		run := func() (experiments.Measurement, error) {
			return experiments.Measure(c.Algo, c.Dim, c.M, benchSeed)
		}
		var last experiments.Measurement
		var runErr error
		r := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := run()
				if err != nil {
					runErr = err
					b.FailNow()
				}
				last = m
			}
		})
		allocs, bytes := r.AllocsPerOp(), r.AllocedBytesPerOp()
		if runErr == nil && gated(c.Name) {
			allocs, bytes, runErr = minAllocs(run)
		}
		if runErr != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", c.Name, runErr)
			os.Exit(1)
		}
		p := Point{
			Name:        c.Name,
			N:           last.N,
			M:           last.M,
			Iters:       r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: allocs,
			BytesPerOp:  bytes,
			VTicks:      int64(last.Makespan),
			VComm:       int64(last.Comm),
			VComp:       int64(last.Comp),
			Msgs:        last.Msgs,
			WireBytes:   last.Bytes,
		}
		rep.Points = append(rep.Points, p)
		if base, ok := baseline[c.Name]; ok {
			rep.Acceptance = append(rep.Acceptance, Acceptance{
				Name:              c.Name,
				BaselineNsPerOp:   base.nsPerOp,
				NsPerOp:           p.NsPerOp,
				ImprovementPct:    pctDrop(base.nsPerOp, p.NsPerOp),
				BaselineAllocsOp:  base.allocsOp,
				AllocsPerOp:       p.AllocsPerOp,
				AllocReductionPct: pctDrop(base.allocsOp, p.AllocsPerOp),
			})
		}
		fmt.Fprintf(os.Stderr, "%-28s %9d ns/op %7d allocs/op %10d vticks\n",
			c.Name, p.NsPerOp, p.AllocsPerOp, p.VTicks)
	}

	for _, c := range microSuite() {
		r := testing.Benchmark(c.run)
		p := Point{
			Name:        c.name,
			N:           c.n,
			M:           c.n,
			Iters:       r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		rep.Points = append(rep.Points, p)
		fmt.Fprintf(os.Stderr, "%-28s %9d ns/op %7d allocs/op\n",
			c.name, p.NsPerOp, p.AllocsPerOp)
	}

	if *basePath != "" {
		if err := gateAllocs(*basePath, rep.Points); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "-" {
		os.Stdout.Write(enc)
		return
	}
	if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
}

// gated reports whether a point's allocs_per_op is gated against the
// baseline report.
func gated(name string) bool {
	return strings.HasPrefix(name, "Fig6_SFT") || strings.HasPrefix(name, "Fig8_BlockFT")
}

// minAllocs runs a point's sort gateRuns times on one P and returns
// the fewest heap allocations and bytes any single run made.
func minAllocs(run func() (experiments.Measurement, error)) (allocs, bytes int64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	for i := 0; i < gateRuns; i++ {
		runtime.ReadMemStats(&before)
		if _, err := run(); err != nil {
			return 0, 0, err
		}
		runtime.ReadMemStats(&after)
		a, b := int64(after.Mallocs-before.Mallocs), int64(after.TotalAlloc-before.TotalAlloc)
		if i == 0 || a < allocs {
			allocs = a
		}
		if i == 0 || b < bytes {
			bytes = b
		}
	}
	return allocs, bytes, nil
}

// gateAllocs fails when any gated point allocates more per op than the
// committed baseline report says it did. A gated point's count is the
// minimum over gateRuns sorts, which strips allocations that only some
// sorts make, so exceeding the committed number is a real regression,
// not noise.
func gateAllocs(path string, points []Point) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("baseline %s: %w", path, err)
	}
	want := make(map[string]int64, len(base.Points))
	for _, p := range base.Points {
		want[p.Name] = p.AllocsPerOp
	}
	var bad []string
	for _, p := range points {
		if !gated(p.Name) {
			continue
		}
		b, ok := want[p.Name]
		if !ok {
			continue
		}
		if p.AllocsPerOp > b {
			bad = append(bad, fmt.Sprintf("%s: %d allocs/op > baseline %d", p.Name, p.AllocsPerOp, b))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("allocs_per_op regression vs %s:\n  %s", path, strings.Join(bad, "\n  "))
	}
	return nil
}

// pctDrop returns how much lower now is than base, in percent.
func pctDrop(base, now int64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * float64(base-now) / float64(base)
}
