// Blocksort: the Figure 8 trade-off, hands on. Sort the same dataset
// three ways — unreliable block bitonic sort, fault-tolerant block
// bitonic sort, and ship-to-host sequential sort — and compare virtual
// run time and traffic.
//
//	go run ./examples/blocksort
//
// The punchline the paper closes with: once each node carries a block
// of keys, the reliability surcharge of S_FT is far cheaper than
// funneling the data through the host, even at modest cube sizes.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hostsort"
	"repro/internal/simnet"
	"repro/internal/sortnr"
)

const (
	dim       = 4  // 16 nodes
	blockSize = 64 // keys per node
	seed      = 1989
)

func main() {
	n := 1 << dim
	all := experiments.Keys(n*blockSize, seed) // node id's block is all[id*blockSize:(id+1)*blockSize]

	type row struct {
		name     string
		makespan int64
		msgs     int64
		bytes    int64
	}
	var rows []row

	{ // Unreliable block bitonic sort.
		nw := mustNet()
		out, res, err := sortnr.RunBlocks(nw, all, blockSize)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.AnyErr(); err != nil {
			log.Fatal(err)
		}
		mustSorted(all, out)
		rows = append(rows, row{"block S_NR (unreliable)", int64(res.Makespan()),
			res.Metrics.TotalMsgs(), res.Metrics.TotalBytes()})
	}
	{ // Fault-tolerant block bitonic sort.
		nw := mustNet()
		oc, err := core.RunBlocks(nw, all, blockSize, nil)
		if err != nil {
			log.Fatal(err)
		}
		if oc.Detected() {
			log.Fatalf("spurious detection: %v", oc.HostErrors)
		}
		mustSorted(all, oc.Sorted)
		rows = append(rows, row{"block S_FT (fault-tolerant)", int64(oc.Result.Makespan()),
			oc.Result.Metrics.TotalMsgs(), oc.Result.Metrics.TotalBytes()})
	}
	{ // Ship everything to the host and back.
		nw := mustNet()
		out, res, err := hostsort.RunHostSort(nw, all, blockSize)
		if err != nil {
			log.Fatal(err)
		}
		if err := res.AnyErr(); err != nil {
			log.Fatal(err)
		}
		mustSorted(all, out)
		rows = append(rows, row{"host sequential sort", int64(res.Makespan()),
			res.Metrics.TotalMsgs(), res.Metrics.TotalBytes()})
	}

	fmt.Printf("sorting %d keys (%d nodes × %d keys/node)\n\n", n*blockSize, n, blockSize)
	fmt.Printf("%-30s %14s %10s %12s\n", "algorithm", "ticks", "messages", "bytes")
	for _, r := range rows {
		fmt.Printf("%-30s %14d %10d %12d\n", r.name, r.makespan, r.msgs, r.bytes)
	}
	ftVsHost := float64(rows[1].makespan) / float64(rows[2].makespan)
	ftVsNR := float64(rows[1].makespan) / float64(rows[0].makespan)
	fmt.Printf("\nreliability surcharge over unreliable sort: %.2fx\n", ftVsNR)
	fmt.Printf("fault-tolerant sort vs host sort:           %.2fx (below 1.0 means S_FT wins)\n", ftVsHost)
}

func mustNet() *simnet.Network {
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 10 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	return nw
}

func mustSorted(in, out []int64) {
	if err := checker.Verify(in, out, true); err != nil {
		log.Fatal(err)
	}
}
