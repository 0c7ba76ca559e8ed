// Package experiments runs the paper's evaluation (Section 5 and the
// error-coverage analysis of Section 4) on the simulated multicomputer
// and renders the tables and figures:
//
//	Figure 5 — worked example of S_FT on {10,8,3,9,4,2,7,5} (cmd/tracesort)
//	Table 1  — fitted communication/computation tick formulas
//	Figure 6 — observed + theoretical sorting times, small cubes
//	Figure 7 — projected times, large systems, and the crossover
//	Figure 8 — block bitonic sort/merge vs host sort
//	E6       — fault-injection coverage (cmd/faultdemo)
//
// The same entry points back cmd/sortbench and the bench_test.go
// harness, so every artifact is regenerable from one code path.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/hostsort"
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

// Blocks generates n blocks of m deterministic random keys.
func Blocks(n, m int, seed int64) [][]int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, m)
		for j := range out[i] {
			out[i][j] = int64(int32(rng.Uint32()))
		}
	}
	return out
}

func newNet(dim int) (*simnet.Network, error) {
	return simnet.New(simnet.Config{Dim: dim, RecvTimeout: runTimeout})
}

// MeasureSNR runs the unreliable distributed sort and measures it.
func MeasureSNR(dim int, seed int64) (Measurement, error) {
	n := 1 << uint(dim)
	keys := Keys(n, seed)
	nw, err := newNet(dim)
	if err != nil {
		return Measurement{}, err
	}
	out, res, err := sortnr.Run(nw, keys)
	if err != nil {
		return Measurement{}, err
	}
	if err := res.AnyErr(); err != nil {
		return Measurement{}, fmt.Errorf("experiments: S_NR run failed: %w", err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		return Measurement{}, fmt.Errorf("experiments: S_NR output invalid: %w", err)
	}
	return Measurement{
		N: n, M: 1,
		Makespan: res.Makespan(),
		Comm:     res.MaxNodeComm(),
		Comp:     res.MaxNodeComp(),
		Msgs:     res.Metrics.TotalMsgs(),
		Bytes:    res.Metrics.TotalBytes(),
	}, nil
}

// MeasureSFT runs the fault-tolerant sort and measures it.
func MeasureSFT(dim int, seed int64) (Measurement, error) {
	n := 1 << uint(dim)
	keys := Keys(n, seed)
	nw, err := newNet(dim)
	if err != nil {
		return Measurement{}, err
	}
	oc, err := core.Run(nw, keys)
	if err != nil {
		return Measurement{}, err
	}
	if oc.Detected() {
		return Measurement{}, fmt.Errorf("experiments: S_FT spurious detection: %v / %v",
			oc.Result.FirstNodeErr(), oc.HostErrors)
	}
	if err := checker.Verify(keys, oc.Sorted, true); err != nil {
		return Measurement{}, fmt.Errorf("experiments: S_FT output invalid: %w", err)
	}
	res := oc.Result
	return Measurement{
		N: n, M: 1,
		Makespan: res.Makespan(),
		Comm:     res.MaxNodeComm(),
		Comp:     res.MaxNodeComp(),
		Msgs:     res.Metrics.TotalMsgs(),
		Bytes:    res.Metrics.TotalBytes(),
	}, nil
}

// MeasureHostSort runs the host sequential baseline and measures it.
// Comm/Comp are the host's own components, matching the paper's
// "Sequential" table row.
func MeasureHostSort(dim int, seed int64) (Measurement, error) {
	n := 1 << uint(dim)
	keys := Keys(n, seed)
	nw, err := newNet(dim)
	if err != nil {
		return Measurement{}, err
	}
	out, res, err := hostsort.RunHostSort(nw, keys)
	if err != nil {
		return Measurement{}, err
	}
	if err := res.AnyErr(); err != nil {
		return Measurement{}, fmt.Errorf("experiments: host sort failed: %w", err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		return Measurement{}, fmt.Errorf("experiments: host sort output invalid: %w", err)
	}
	return Measurement{
		N: n, M: 1,
		Makespan: res.Makespan(),
		Comm:     res.HostComm,
		Comp:     res.HostComp,
		Msgs:     res.Metrics.TotalMsgs(),
		Bytes:    res.Metrics.TotalBytes(),
	}, nil
}

// MeasureHostVerify runs the host-verification baseline (S_NR plus
// Theorem 1 at the host).
func MeasureHostVerify(dim int, seed int64) (Measurement, error) {
	n := 1 << uint(dim)
	keys := Keys(n, seed)
	nw, err := newNet(dim)
	if err != nil {
		return Measurement{}, err
	}
	out, res, err := hostsort.RunHostVerify(nw, keys)
	if err != nil {
		return Measurement{}, err
	}
	if err := res.AnyErr(); err != nil {
		return Measurement{}, fmt.Errorf("experiments: host verify failed: %w", err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		return Measurement{}, fmt.Errorf("experiments: host verify output invalid: %w", err)
	}
	return Measurement{
		N: n, M: 1,
		Makespan: res.Makespan(),
		Comm:     res.HostComm,
		Comp:     res.HostComp,
		Msgs:     res.Metrics.TotalMsgs(),
		Bytes:    res.Metrics.TotalBytes(),
	}, nil
}

// MeasureBlockFT runs the fault-tolerant sort with m keys/node. Its
// input, Keys(n*m, seed), is the node-order concatenation of
// Blocks(n, m, seed), the host baseline's input.
func MeasureBlockFT(dim, m int, seed int64) (Measurement, error) {
	n := 1 << uint(dim)
	keys := Keys(n*m, seed)
	nw, err := newNet(dim)
	if err != nil {
		return Measurement{}, err
	}
	oc, err := core.RunBlocks(nw, keys, m, nil)
	if err != nil {
		return Measurement{}, err
	}
	if oc.Detected() {
		return Measurement{}, fmt.Errorf("experiments: block S_FT spurious detection: %v / %v",
			oc.Result.FirstNodeErr(), oc.HostErrors)
	}
	if err := checker.Verify(keys, oc.Sorted, true); err != nil {
		return Measurement{}, fmt.Errorf("experiments: block S_FT output invalid: %w", err)
	}
	res := oc.Result
	return Measurement{
		N: n, M: m,
		Makespan: res.Makespan(),
		Comm:     res.MaxNodeComm(),
		Comp:     res.MaxNodeComp(),
		Msgs:     res.Metrics.TotalMsgs(),
		Bytes:    res.Metrics.TotalBytes(),
	}, nil
}

// MeasureBlockNR runs the unreliable sort with m keys/node, on the
// same input as MeasureBlockFT.
func MeasureBlockNR(dim, m int, seed int64) (Measurement, error) {
	n := 1 << uint(dim)
	keys := Keys(n*m, seed)
	nw, err := newNet(dim)
	if err != nil {
		return Measurement{}, err
	}
	out, res, err := sortnr.RunBlocks(nw, keys, m)
	if err != nil {
		return Measurement{}, err
	}
	if err := res.AnyErr(); err != nil {
		return Measurement{}, fmt.Errorf("experiments: block S_NR failed: %w", err)
	}
	if err := checker.Verify(keys, out, true); err != nil {
		return Measurement{}, fmt.Errorf("experiments: block S_NR output invalid: %w", err)
	}
	return Measurement{
		N: n, M: m,
		Makespan: res.Makespan(),
		Comm:     res.MaxNodeComm(),
		Comp:     res.MaxNodeComp(),
		Msgs:     res.Metrics.TotalMsgs(),
		Bytes:    res.Metrics.TotalBytes(),
	}, nil
}

// MeasureHostSortBlocks runs the host baseline with m keys/node.
func MeasureHostSortBlocks(dim, m int, seed int64) (Measurement, error) {
	n := 1 << uint(dim)
	blocks := Blocks(n, m, seed)
	all := hostsort.SortedBlocksFlat(blocks)
	nw, err := newNet(dim)
	if err != nil {
		return Measurement{}, err
	}
	out, res, err := hostsort.RunHostSortBlocks(nw, blocks)
	if err != nil {
		return Measurement{}, err
	}
	if err := res.AnyErr(); err != nil {
		return Measurement{}, fmt.Errorf("experiments: host block sort failed: %w", err)
	}
	if err := checker.Verify(all, hostsort.SortedBlocksFlat(out), true); err != nil {
		return Measurement{}, fmt.Errorf("experiments: host block sort output invalid: %w", err)
	}
	return Measurement{
		N: n, M: m,
		Makespan: res.Makespan(),
		Comm:     res.HostComm,
		Comp:     res.HostComp,
		Msgs:     res.Metrics.TotalMsgs(),
		Bytes:    res.Metrics.TotalBytes(),
	}, nil
}
