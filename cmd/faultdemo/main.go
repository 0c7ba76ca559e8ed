// Command faultdemo runs the error-coverage experiment of Section 4:
// it injects every Byzantine strategy at every node of the cube,
// verifies the fail-stop guarantee (Theorem 3: detected or harmless,
// never silently wrong), and prints the coverage matrix. It then runs
// the same faults against the unreliable S_NR to show the contrast the
// paper motivates with.
//
//	faultdemo -dim 3 -lie 999
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/simnet"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultdemo:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("faultdemo", flag.ContinueOnError)
	dim := fs.Int("dim", 3, "hypercube dimension (N = 2^dim nodes)")
	lie := fs.Int64("lie", 999, "bogus value used by lying strategies")
	seed := fs.Int64("seed", 1989, "workload seed")
	timeout := fs.Duration("timeout", 100*time.Millisecond, "absence-detection timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dim < 1 || *dim > 6 {
		return fmt.Errorf("dim %d out of range [1,6]", *dim)
	}
	n := 1 << uint(*dim)
	keys := experiments.Keys(n, *seed)

	fmt.Fprintf(out, "Error coverage (Section 4) — S_FT, %d nodes, one Byzantine node per run\n\n", n)
	results, err := fault.Coverage(*dim, keys, 1, fault.AllStrategies(), *lie, *timeout)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%-16s", "strategy\\node")
	for id := 0; id < n; id++ {
		fmt.Fprintf(out, " %3d", id)
	}
	fmt.Fprintln(out)
	i := 0
	for _, st := range fault.AllStrategies() {
		fmt.Fprintf(out, "%-16s", st)
		for id := 0; id < n; id++ {
			r := results[i]
			i++
			mark := "???"
			switch r.Verdict {
			case fault.Detected:
				mark = " D "
			case fault.CorrectDespiteFault:
				mark = " c "
			case fault.SilentWrong:
				mark = " X "
			}
			_ = id
			fmt.Fprintf(out, " %s", mark)
		}
		fmt.Fprintln(out)
	}
	sum := fault.Summarize(results)
	fmt.Fprintf(out, "\nD = detected (fail-stop), c = correct despite fault, X = SILENT WRONG (forbidden)\n")
	fmt.Fprintf(out, "Summary: %d runs, %d detected, %d harmless, %d silent-wrong\n",
		sum.Total, sum.Detected, sum.CorrectDespiteFault, sum.SilentWrong)
	if sum.SilentWrong > 0 {
		return fmt.Errorf("fail-stop guarantee VIOLATED: %d silent-wrong runs", sum.SilentWrong)
	}
	fmt.Fprintf(out, "Theorem 3 holds: no silent corruption in %d adversarial runs.\n\n", sum.Total)

	// Beyond detection: localize the culprit from one run's diagnostics.
	demoSpec := fault.Spec{Node: n / 2, Strategy: fault.SplitLie, ActivateStage: 1, LieValue: *lie}
	nw, err := simnet.New(simnet.Config{Dim: *dim, RecvTimeout: *timeout})
	if err != nil {
		return err
	}
	opts := make([]core.Options, n)
	opts[demoSpec.Node] = core.Options{SkipChecks: true, Tamper: demoSpec.Tamper()}
	oc, err := core.RunWithOptions(nw, keys, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Fault localization (node %d injected with %v):\n", demoSpec.Node, demoSpec.Strategy)
	fmt.Fprint(out, diagnose.Report(oc.HostErrors))
	if prime, ok := diagnose.Prime(oc.HostErrors); ok && prime.Node == demoSpec.Node {
		fmt.Fprintf(out, "Diagnosis names the injected node correctly.\n\n")
	} else {
		fmt.Fprintf(out, "\n")
	}

	fmt.Fprintf(out, "Contrast: the same key-lie fault against unreliable S_NR\n\n")
	silent := 0
	for id := 0; id < n; id++ {
		spec := fault.Spec{Node: id, Strategy: fault.KeyLie, ActivateStage: 1, LieValue: *lie}
		r, err := fault.InjectSNR(*dim, keys, spec, *timeout)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  faulty node %d: %v\n", id, r.Verdict)
		if r.Verdict == fault.SilentWrong {
			silent++
		}
	}
	fmt.Fprintf(out, "\nS_NR silently delivered corrupted output in %d/%d runs — the failure mode\n", silent, n)
	fmt.Fprintf(out, "the application-oriented fault tolerance paradigm eliminates.\n")
	return nil
}
