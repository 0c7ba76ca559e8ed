// Byzantine survival: inject a maliciously lying processor into the
// fault-tolerant sort and watch the constraint predicate catch it.
//
//	go run ./examples/byzantine
//
// Node 5 participates in the protocol but, from stage 1 on, reports a
// different value for its own entry to every neighbor — the
// "split lie" that defeats naive checking, because each receiver's
// local view stays plausible. The consistency predicate Φ_C relays
// every value along vertex-disjoint paths, so the conflicting copies
// meet at an honest node and the system fail-stops with a diagnosis.
// Then the same attack is run against the unreliable S_NR, which
// happily delivers a corrupted "sorted" list.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/simnet"
)

func main() {
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5}
	const dim = 3
	const faultyNode = 5

	spec := fault.Spec{
		Node:          faultyNode,
		Strategy:      fault.SplitLie,
		ActivateStage: 1, // honest through the first exchange (assumption 5)
		LieValue:      500,
	}

	// --- S_FT: the attack is detected -------------------------------
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 200 * time.Millisecond})
	if err != nil {
		log.Fatal(err)
	}
	oc, err := core.RunWithOptions(nw, keys, fault.Set{{Msg: &spec}}.Options(1<<dim))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("S_FT with Byzantine node %d (%v):\n", faultyNode, spec.Strategy)
	if !oc.Detected() {
		log.Fatal("attack went undetected — this should be impossible (Theorem 3)")
	}
	for _, he := range oc.HostErrors {
		fmt.Printf("  host received ERROR from node %d at stage %d: %s predicate — %s\n",
			he.Node, he.Stage, he.Predicate, he.Detail)
	}
	fmt.Println("  system fail-stopped; no output delivered. Correctness preserved.")

	// --- S_NR: the same attack corrupts silently --------------------
	r, err := fault.InjectSNR(dim, keys, fault.Spec{
		Node: faultyNode, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: 500,
	}, 200*time.Millisecond)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nS_NR with the same Byzantine node: verdict = %v\n", r.Verdict)
	if r.Verdict == fault.SilentWrong {
		fmt.Println("  S_NR delivered a wrong result with no indication anything failed.")
	}

	// Sanity: the honest run still works.
	nw2, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 5 * time.Second})
	if err != nil {
		log.Fatal(err)
	}
	oc2, err := core.Run(nw2, keys)
	if err != nil {
		log.Fatal(err)
	}
	if oc2.Detected() {
		log.Fatal("honest run misdetected")
	}
	if err := checker.Verify(keys, oc2.Sorted, true); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nHonest rerun:", oc2.Sorted)
}
