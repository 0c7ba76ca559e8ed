// Pipeline: sorting as a sub-problem of a larger distributed
// application — the setting the paper's introduction argues for.
//
//	go run ./examples/pipeline
//
// A 16-node multicomputer has just finished a (simulated) measurement
// phase: each node holds 128 local latency samples that never existed
// in one place. The analysis phase needs exact percentiles of the
// global distribution. Shipping everything to the host would serialize
// on the slow host channel; instead the nodes run the fault-tolerant
// block bitonic sort in place, after which the global order statistics
// are addressable by (node, offset) — the k-th smallest of the N·m
// samples lives at node k/m, offset k mod m, which is position k of the
// node-order output — and the result is end-to-end verified by the
// constraint predicate.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/simnet"
)

const (
	dim       = 4   // 16 nodes
	blockSize = 128 // samples per node
)

func main() {
	n := 1 << dim
	total := n * blockSize

	// Measurement phase: data is born distributed. Simulate a heavy-
	// tailed latency distribution, different on every node.
	// Node id's samples are samples[id*blockSize:(id+1)*blockSize].
	rng := rand.New(rand.NewSource(7))
	samples := make([]int64, total)
	for id := 0; id < n; id++ {
		base := int64(100 + 10*id)
		for j := 0; j < blockSize; j++ {
			samples[id*blockSize+j] = base + int64(rng.ExpFloat64()*250)
		}
	}

	// Analysis phase: reliable in-place distributed sort.
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 10 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	oc, err := core.RunBlocks(nw, samples, blockSize, nil)
	if err != nil {
		log.Fatal(err)
	}
	if oc.Detected() {
		log.Fatalf("fault detected during sort: %v %v", oc.Result.FirstNodeErr(), oc.HostErrors)
	}

	// Exact order statistics, addressed by (node, offset).
	percentile := func(p float64) int64 {
		k := int(p * float64(total-1))
		return oc.Sorted[k]
	}
	fmt.Printf("global latency distribution over %d samples on %d nodes:\n", total, n)
	for _, p := range []float64{0.50, 0.90, 0.99, 0.999} {
		fmt.Printf("  p%-5g = %d\n", p*100, percentile(p))
	}
	fmt.Printf("\nvirtual time %d ticks; %d messages, %d bytes — no sample ever crossed the host channel\n",
		oc.Result.Makespan(), oc.Result.Metrics.TotalMsgs(), oc.Result.Metrics.TotalBytes())
}
