// Command tracesort reproduces the paper's Figure 5: the worked
// example of S_FT sorting {10, 8, 3, 9, 4, 2, 7, 5} on an 8-node
// (dimension 3) hypercube. It prints each home subcube's verified
// bitonic sequence (LBS) at the end of every stage and the final
// verified result — exactly the quantities the figure annotates.
//
//	tracesort                  # the paper's example
//	tracesort -keys 5,1,4,2    # your own list (power-of-two length)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hypercube"
	"repro/internal/obs"
	"repro/internal/obs/forensic"
	"repro/internal/simnet"
	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracesort:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracesort", flag.ContinueOnError)
	keysFlag := fs.String("keys", "10,8,3,9,4,2,7,5", "comma-separated keys, one per node (power-of-two count)")
	causal := fs.Bool("causal", false, "print each node's causal event id per stage (joins against forensic dumps)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	keys, err := parseKeys(*keysFlag)
	if err != nil {
		return err
	}
	if !hypercube.IsPow2(len(keys)) {
		return fmt.Errorf("key count %d is not a power of two", len(keys))
	}
	dim, err := hypercube.Log2(len(keys))
	if err != nil {
		return err
	}

	// The recorder subscribes to the stage-view stream; each event
	// carries the causal id that joins it against forensic dumps.
	var rec trace.Recorder
	observer := obs.New(obs.NewRegistry(), 0)
	observer.Subscribe(&rec)
	flight := forensic.New(0)
	opts := make([]core.Options, len(keys))
	for id := range opts {
		opts[id] = core.Options{Obs: observer, Forensic: flight.Node(id)}
	}
	nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 10 * time.Second, Flight: flight})
	if err != nil {
		return err
	}
	oc, err := core.RunWithOptions(nw, keys, opts)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "S_FT worked example (Figure 5) — sorting %v on %d nodes\n", keys, len(keys))
	fmt.Fprintf(out, "Initial placement: node i holds keys[i].\n\n")
	fmt.Fprint(out, rec.Render())
	if *causal {
		fmt.Fprintf(out, "Causal event ids (node, stage -> flight-recorder id):\n")
		for _, ev := range rec.Events() {
			fmt.Fprintf(out, "  node %d stage %d: %d\n", ev.Node, ev.Stage, uint64(ev.Causal))
		}
		fmt.Fprintln(out)
	}
	if oc.Detected() {
		fmt.Fprintf(out, "ERROR signalled: %v %v\n", oc.Result.FirstNodeErr(), oc.HostErrors)
		return fmt.Errorf("unexpected fault detection on honest run")
	}
	sorted := append([]int64{}, keys...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	fmt.Fprintf(out, "Result across nodes 0..%d: %v\n", len(keys)-1, oc.Sorted)
	fmt.Fprintf(out, "Expected:                 %v\n", sorted)
	return nil
}

func parseKeys(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad key %q: %w", part, err)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no keys in %q", s)
	}
	return out, nil
}
