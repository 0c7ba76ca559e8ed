// Package experiments runs the paper's evaluation (Section 5 and the
// error-coverage analysis of Section 4) on the simulated multicomputer
// and renders the tables and figures:
//
//	Table 1  — fitted communication/computation tick formulas
//	Figure 6 — observed + theoretical sorting times, small cubes
//	Figure 7 — projected times, large systems, and the crossover
//	Figure 8 — block bitonic sort/merge vs host sort, and its projection
//	E8       — detection-coverage matrix over the adversary classes
//	           (MeasureCoverage, cmd/faultcoverage)
//	Recovery — supervised-recovery sweep that calibrates and checks the
//	           recovery cost model (MeasureRecovery, cmd/recoverycost)
//
// Every §5 sort runs through one Measure over block length m, Figure 6
// being Figure 8's m = 1 case. The golden virtual-tick series is the
// Pinned table; cmd/sortbench, cmd/benchjson and the bench_test.go
// harness all measure through Measure, so every artifact is
// regenerable from one code path.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/hostsort"
	"repro/internal/node"
	"repro/internal/simnet"
	"repro/internal/sortnr"
)

// runTimeout bounds absence detection in healthy runs; generous since
// no faults are injected by these experiments.
const runTimeout = 30 * time.Second

// Measurement is one simulated run's costs.
type Measurement struct {
	// N is the node count; M the keys per node (1 except block runs).
	N int
	M int
	// Makespan is the run's virtual completion time.
	Makespan simnet.Ticks
	// Comm and Comp are the critical-path per-processor ticks: the
	// maximum node communication/computation for distributed
	// algorithms, the host's own for host-centered ones.
	Comm simnet.Ticks
	Comp simnet.Ticks
	// Msgs and Bytes are total network traffic.
	Msgs  int64
	Bytes int64
}

// Point converts the measurement for model fitting.
func (m Measurement) Point() costmodel.Point {
	return costmodel.Point{N: m.N, Comm: float64(m.Comm), Comp: float64(m.Comp)}
}

// Keys generates the deterministic random workload for a given size
// and seed: uniform 32-bit-ish integers, matching the paper's
// "sort 32-bit integers into ascending order".
func Keys(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(int32(rng.Uint32()))
	}
	return keys
}

// Algorithm names one of the Section 5 sorts Measure runs.
type Algorithm int

const (
	SNR        Algorithm = iota // the unreliable distributed sort S_NR
	SFT                         // the fault-tolerant sort S_FT
	HostSort                    // ship to the host, sort there, ship back
	HostVerify                  // S_NR, then Theorem 1 checked at the host
)

func (a Algorithm) String() string {
	switch a {
	case SNR:
		return "S_NR"
	case SFT:
		return "S_FT"
	case HostSort:
		return "host sort"
	case HostVerify:
		return "host verify"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Measure runs algo on the 2^dim-node cube with m keys per node, on
// the input Keys(2^dim·m, seed), checks that it sorted, and measures
// it. Comm and Comp are the slowest node's for the distributed sorts
// and the host's own for the host baselines, matching the paper's
// "Sequential" table row.
func Measure(algo Algorithm, dim, m int, seed int64) (Measurement, error) {
	n := 1 << uint(dim)
	keys := Keys(n*m, seed)
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: runTimeout})
	if err != nil {
		return Measurement{}, err
	}
	var out []int64
	var res *node.Result
	switch algo {
	case SNR:
		out, res, err = sortnr.RunBlocks(nw, keys, m)
	case SFT:
		var oc *core.Outcome
		if oc, err = core.RunBlocks(nw, keys, m, nil); err == nil {
			out, res = oc.Sorted, oc.Result
			if len(oc.HostErrors) > 0 {
				err = fmt.Errorf("spurious detection: %v", oc.HostErrors)
			}
		}
	case HostSort:
		out, res, err = hostsort.RunHostSort(nw, keys, m)
	case HostVerify:
		out, res, err = hostsort.RunHostVerify(nw, keys, m)
	default:
		err = fmt.Errorf("unknown algorithm")
	}
	if err == nil {
		err = res.AnyErr()
	}
	if err == nil {
		err = checker.Verify(keys, out, true)
	}
	if err != nil {
		return Measurement{}, fmt.Errorf("experiments: %v, N=%d, m=%d: %w", algo, n, m, err)
	}
	return measurement(algo, m, res), nil
}

// measurement reads algo's costs off a finished run with m keys per
// node.
func measurement(algo Algorithm, m int, res *node.Result) Measurement {
	ms := Measurement{
		N: len(res.Nodes), M: m,
		Makespan: res.Makespan(),
		Comm:     res.MaxNodeComm(),
		Comp:     res.MaxNodeComp(),
		Msgs:     res.Metrics.TotalMsgs(),
		Bytes:    res.Metrics.TotalBytes(),
	}
	if algo == HostSort || algo == HostVerify {
		ms.Comm, ms.Comp = res.HostComm, res.HostComp
	}
	return ms
}

// PinnedPoint is one point of the golden virtual-tick series: Algo on
// the 2^Dim-node cube with M keys per node. BENCH_PR7.json pins each
// point's vticks, vcomm, vcomp, msgs and wirebytes under Name.
type PinnedPoint struct {
	Name string
	Algo Algorithm
	Dim  int
	M    int
}

// Pinned is the golden series in report order: Figure 6's three sorts
// on 4 to 32 nodes with one key each, then Figure 8's on 4 to 16 nodes
// with 64 keys each.
var Pinned = []PinnedPoint{
	{"Fig6_SNR/N=4", SNR, 2, 1},
	{"Fig6_SFT/N=4", SFT, 2, 1},
	{"Fig6_HostSort/N=4", HostSort, 2, 1},
	{"Fig6_SNR/N=8", SNR, 3, 1},
	{"Fig6_SFT/N=8", SFT, 3, 1},
	{"Fig6_HostSort/N=8", HostSort, 3, 1},
	{"Fig6_SNR/N=16", SNR, 4, 1},
	{"Fig6_SFT/N=16", SFT, 4, 1},
	{"Fig6_HostSort/N=16", HostSort, 4, 1},
	{"Fig6_SNR/N=32", SNR, 5, 1},
	{"Fig6_SFT/N=32", SFT, 5, 1},
	{"Fig6_HostSort/N=32", HostSort, 5, 1},
	{"Fig8_BlockNR/N=4/m=64", SNR, 2, 64},
	{"Fig8_BlockFT/N=4/m=64", SFT, 2, 64},
	{"Fig8_HostBlocks/N=4/m=64", HostSort, 2, 64},
	{"Fig8_BlockNR/N=8/m=64", SNR, 3, 64},
	{"Fig8_BlockFT/N=8/m=64", SFT, 3, 64},
	{"Fig8_HostBlocks/N=8/m=64", HostSort, 3, 64},
	{"Fig8_BlockNR/N=16/m=64", SNR, 4, 64},
	{"Fig8_BlockFT/N=16/m=64", SFT, 4, 64},
	{"Fig8_HostBlocks/N=16/m=64", HostSort, 4, 64},
}
