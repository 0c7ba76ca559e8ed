// Retry: what "reliable communication of diagnostic information is
// provided to the system so that appropriate actions may be taken"
// (the paper's §1) looks like in practice — with the appropriate
// actions now taken by the recovery supervisor behind
// reliablesort.Sort's AutoRecover option.
//
//	go run ./examples/retry
//
// Act 1: a node suffers a *transient* Byzantine episode — a cosmic-ray
// bit flip that corrupts its messages for one run. The constraint
// predicate detects it and fail-stops; the supervisor diagnoses the
// evidence, backs off, and re-runs. The episode has passed, the second
// attempt verifies clean, and the caller never saw a wrong answer.
//
// Act 2: the same node is *persistently* faulty — it lies again on the
// retry. Two consecutive attempts accuse the same prime suspect, so
// the supervisor quarantines it: the survivors are remapped onto the
// next-smaller subcube (the host-held input is the reliable
// checkpoint) and the degraded cube finishes the job.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/reliablesort"
)

func run(title string, persistent bool) {
	keys := []int64{10, 8, 3, 9, 4, 2, 7, 5, 31, -6, 14, 0, 22, -9, 17, 1}
	const culprit = 6

	fmt.Printf("=== %s ===\n", title)
	inject := func(attempt, dim int, physical []int) []core.Options {
		opts := make([]core.Options, 1<<uint(dim))
		if !persistent && attempt > 0 {
			return opts // the episode has passed
		}
		for logical, ph := range physical {
			if ph == culprit {
				spec := fault.Spec{Node: logical, Strategy: fault.ViewLie, ActivateStage: 1, LieValue: -404}
				opts[logical] = core.Options{SkipChecks: true, Tamper: spec.Tamper()}
			}
		}
		return opts
	}

	out, stats, err := reliablesort.Sort(keys, reliablesort.Options{
		Dim:         3,
		RecvTimeout: 200 * time.Millisecond,
		AutoRecover: true,
		MaxAttempts: 5,
		Inject:      inject,
	})
	if err != nil {
		log.Fatalf("%s: %v", title, err)
	}

	for _, a := range stats.Recovery.Attempts {
		fmt.Printf("attempt %d on a dim-%d cube", a.Index+1, a.Dim)
		if a.Backoff > 0 {
			fmt.Printf(" (after %v backoff)", a.Backoff.Round(time.Millisecond))
		}
		if a.Verified {
			fmt.Println(": verified clean")
			continue
		}
		fmt.Println(": fail-stop")
		for _, he := range a.HostErrors {
			fmt.Printf("  node %d, stage %d: %s predicate — %s\n", he.Node, he.Stage, he.Predicate, he.Detail)
		}
		if len(a.Suspects) > 0 {
			fmt.Printf("  prime suspect: physical node %d\n", a.Suspects[0].Node)
		}
		if a.Quarantined >= 0 {
			fmt.Printf("  appropriate action: quarantine node %d, shrink to dim %d\n", a.Quarantined, a.Dim-1)
		} else {
			fmt.Println("  appropriate action: retry")
		}
	}
	fmt.Printf("result: %v\n", out)
	fmt.Printf("cost: %d attempts, %d wasted ticks, quarantined %v\n\n",
		stats.Attempts, stats.Recovery.WastedCost, stats.Recovery.Quarantined)
}

func main() {
	run("Act 1: transient episode — retry suffices", false)
	run("Act 2: persistent fault — quarantine and shrink", true)
}
