// Command recoverdemo exercises the recovery supervisor end to end: it
// injects a chosen Byzantine strategy at a chosen node, runs
// reliablesort.Sort with an attempt budget, and narrates the
// supervision — per-attempt diagnostics, backoff waits, quarantine
// decisions, cube shrinks, and the final overhead accounting.
//
//	recoverdemo -strategy view-lie -site 6 -persistent
//	recoverdemo -strategy silence -site 3
//	recoverdemo -strategy key-lie -site 7 -persistent -attempts 6
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/reliablesort"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "recoverdemo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("recoverdemo", flag.ContinueOnError)
	strategy := fs.String("strategy", "view-lie", "Byzantine strategy to inject")
	site := fs.Int("site", 6, "physical node label of the fault site")
	persistent := fs.Bool("persistent", false, "fault persists across attempts (default: transient, first attempt only)")
	dim := fs.Int("dim", 3, "hypercube dimension (N = 2^dim nodes)")
	attempts := fs.Int("attempts", 5, "supervisor attempt budget")
	spares := fs.Int("spares", 0, "spare nodes pooled for substitution (labels 2^dim and up)")
	seed := fs.Int64("seed", 1989, "workload seed")
	lie := fs.Int64("lie", 999, "bogus value used by lying strategies")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dim < 1 || *dim > 6 {
		return fmt.Errorf("dim %d out of range [1,6]", *dim)
	}
	if *spares < 0 {
		return fmt.Errorf("spares %d must be non-negative", *spares)
	}
	n := 1 << uint(*dim)
	if *site < 0 || *site >= n {
		return fmt.Errorf("site %d outside [0,%d)", *site, n)
	}
	st, ok := fault.ByName(fault.AllStrategies(), *strategy)
	if !ok {
		return fmt.Errorf("unknown strategy %q (try key-lie, split-lie, view-lie, wrong-compare, silence, mask-inflation, stale-replay)", *strategy)
	}
	keys := experiments.Keys(2*n, *seed)

	kind := "transient"
	if *persistent {
		kind = "persistent"
	}
	fmt.Fprintf(out, "Recovery supervision: %s %v fault at physical node %d, dim-%d cube, budget %d attempts",
		kind, st, *site, *dim, *attempts)
	if *spares > 0 {
		fmt.Fprintf(out, ", %d spare(s) pooled", *spares)
	}
	fmt.Fprintf(out, "\n\n")

	spec := fault.Spec{Node: *site, Strategy: st, ActivateStage: 1, LieValue: *lie}
	sorted, stats, err := reliablesort.Sort(keys, reliablesort.Options{
		Dim:         *dim,
		MaxAttempts: *attempts,
		Spares:      *spares,
		Inject:      fault.Follow(fault.Set{{Msg: &spec}}, *persistent),
	})
	if err != nil {
		var ex *recovery.ExhaustedError
		if errors.As(err, &ex) {
			fmt.Fprintf(out, "supervision ESCALATED after %d attempts (quarantined %v", len(ex.Attempts), ex.Quarantined())
			if used := ex.SparesUsed(); len(used) > 0 {
				fmt.Fprintf(out, ", %d spare(s) consumed in vain", len(used))
			}
			fmt.Fprintf(out, "):\n")
			narrate(out, ex.Attempts)
			fmt.Fprintf(out, "\nNo verified result was delivered — the fail-stop contract held to the end.\n")
			return err
		}
		return err
	}

	narrate(out, stats.Recovery.Attempts)
	fmt.Fprintf(out, "\nVerified result (%d keys): %v ...\n", len(sorted), sorted[:min(8, len(sorted))])
	rep := stats.Recovery
	fmt.Fprintf(out, "\nOverhead accounting:\n")
	fmt.Fprintf(out, "  attempts:        %d\n", stats.Attempts)
	fmt.Fprintf(out, "  final cube dim:  %d (%d nodes x %d keys)\n", rep.FinalDim(), stats.Nodes, stats.BlockLen)
	fmt.Fprintf(out, "  quarantined:     %v\n", rep.Quarantined())
	if used := rep.SparesUsed(); len(used) > 0 {
		fmt.Fprintf(out, "  spares consumed: %v (of %d pooled)\n", used, *spares)
	}
	fmt.Fprintf(out, "  wasted ticks:    %d (virtual time of failed attempts)\n", rep.WastedCost())
	fmt.Fprintf(out, "  total backoff:   %v\n", rep.TotalBackoff().Round(time.Millisecond))
	return nil
}

func narrate(out io.Writer, attempts []recovery.Attempt) {
	for _, a := range attempts {
		fmt.Fprintf(out, "attempt %d: dim-%d cube, physical nodes %v", a.Index+1, a.Dim, a.Physical)
		if a.Backoff > 0 {
			fmt.Fprintf(out, ", after %v backoff", a.Backoff.Round(time.Millisecond))
		}
		fmt.Fprintln(out)
		if a.Verified {
			fmt.Fprintf(out, "  verified clean\n")
			continue
		}
		fmt.Fprintf(out, "  fail-stop; %d diagnostic signal(s)\n", len(a.HostErrors))
		fault.SortEvidence(a.HostErrors)
		for i, he := range a.HostErrors {
			if i >= 3 {
				fmt.Fprintf(out, "    ... and %d more\n", len(a.HostErrors)-i)
				break
			}
			fmt.Fprintf(out, "    node %d stage %d: %s (%s evidence) accusing %d\n",
				he.Node, he.Stage, he.Predicate, he.Kind, he.Accused)
		}
		if len(a.Suspects) > 0 {
			s := a.Suspects[0]
			fmt.Fprintf(out, "  prime suspect: physical node %d (%d direct, %d absence votes)\n",
				s.Node, s.DirectVotes, s.AbsenceVotes)
		} else {
			fmt.Fprintf(out, "  no attributable evidence\n")
		}
		switch {
		case a.Substituted >= 0:
			fmt.Fprintf(out, "  decision: persistent — quarantine node %d, substitute spare %d at its slot (dim %d preserved)\n",
				a.Quarantined, a.Substituted, a.Dim)
		case a.Quarantined >= 0:
			fmt.Fprintf(out, "  decision: persistent — quarantine node %d, shrink to dim %d\n",
				a.Quarantined, a.Dim-1)
		default:
			fmt.Fprintf(out, "  decision: retry\n")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
