// Command explore runs the exhaustive interleaving explorer: bounded
// schedule-space model checking of S_FT on small cubes, crossed with
// the full single-fault placement menu (message, absence, comparison,
// memory — fault.SingleFaultCases). Every realizable delivery
// interleaving of every case is executed and checked: fault-free
// branches must sort, faulted branches must be verified-or-escalated
// (Theorem 3's fail-stop guarantee). Any counterexample is shrunk to a
// 1-minimal schedule, written as a replayable reproducer artifact plus
// its forensic flight-recorder dump, and fails the command.
//
//	explore -dim 2                        # exhaust the dim-2 single-fault sweep
//	explore -dim 1 -maxdepth 8            # CI smoke: bounded depth
//	explore -dim 1 -weaken -case mem/     # demo: weakened checks yield a counterexample
//	explore -replay artifacts/ce.json     # re-run a recorded counterexample
//	explore -dim 2 -json explore-e9.json  # write the E9 stats artifact
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/explore"
	"repro/internal/fault"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "explore:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("explore", flag.ContinueOnError)
	dim := fs.Int("dim", 2, "cube dimension to explore")
	caseFilter := fs.String("case", "", "only sweep cases whose name contains this substring")
	maxDepth := fs.Int("maxdepth", 0, "expand branches only above this decision depth (0 = exhaustive)")
	maxBranches := fs.Int("maxbranches", 0, "per-case branch cap (0 = unbounded)")
	weaken := fs.Bool("weaken", false, "disable every node's executable assertions (counterexample demo)")
	artifactDir := fs.String("artifacts", "explore-artifacts", "directory for counterexample reproducers and forensic dumps")
	jsonPath := fs.String("json", "", "write the sweep result as JSON")
	replayPath := fs.String("replay", "", "replay a reproducer artifact instead of sweeping")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *replayPath != "" {
		return replay(*replayPath, out)
	}

	cfg := explore.Config{
		Dim:          *dim,
		MaxDepth:     *maxDepth,
		MaxBranches:  *maxBranches,
		WeakenChecks: *weaken,
	}
	if *caseFilter != "" {
		var cases []fault.Case
		for _, c := range fault.SingleFaultCases(*dim) {
			if strings.Contains(c.Name, *caseFilter) {
				cases = append(cases, c)
			}
		}
		if len(cases) == 0 {
			return fmt.Errorf("no case matches %q", *caseFilter)
		}
		cfg.Cases = cases
	}

	res, err := explore.Run(cfg)
	if err != nil {
		return err
	}
	render(out, res)

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "result written to %s\n", *jsonPath)
	}

	if len(res.Violations) == 0 {
		fmt.Fprintf(out, "OK: %d branches across %d cases, zero unverified-and-unescalated branches\n",
			res.Branches, len(res.Cases))
		return nil
	}
	for i, v := range res.Violations {
		base := fmt.Sprintf("counterexample-%d-%s", i, sanitize(v.Case))
		rep := v.Reproducer(*dim, *weaken)
		if err := explore.WriteCounterexample(*artifactDir, base, rep, v.Dump); err != nil {
			return err
		}
		fmt.Fprintf(out, "counterexample: case %s broke %s: %s\n", v.Case, v.Invariant, v.Detail)
		fmt.Fprintf(out, "  shrunk to %d directives (from %d); artifact %s\n",
			len(v.Schedule), len(v.Full), *artifactDir+"/"+base+".json")
	}
	return fmt.Errorf("%d invariant counterexamples", len(res.Violations))
}

// render prints the per-case stats table and totals.
func render(out io.Writer, res *explore.Result) {
	fmt.Fprintf(out, "%-28s %9s %7s %10s %9s\n", "case", "branches", "pruned", "decisions", "maxdepth")
	for _, cs := range res.Cases {
		trunc := ""
		if cs.Truncated {
			trunc = " (truncated)"
		}
		fmt.Fprintf(out, "%-28s %9d %7d %10d %9d%s\n",
			cs.Case, cs.Branches, cs.Pruned, cs.Decisions, cs.MaxDepth, trunc)
	}
	fmt.Fprintf(out, "%-28s %9d %7d %10d %9d\n", "TOTAL", res.Branches, res.Pruned, res.Decisions, res.MaxDepth)
}

// replay re-runs a reproducer artifact and reports its diagnosis.
func replay(path string, out io.Writer) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	rep, err := explore.ParseReproducer(buf)
	if err != nil {
		return err
	}
	diag, dump, err := explore.Replay(rep)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replayed %s: case %s, invariant %s\n", path, rep.Case.Name, rep.Invariant)
	fmt.Fprintf(out, "  verdict %v, accused %d, evidence at stage %d iter %d\n",
		diag.Verdict, diag.Accused, diag.Stage, diag.Iter)
	if dump != nil {
		fmt.Fprintf(out, "  forensic dump: accuser %d, %d chain hops (render with cmd/forensic)\n",
			dump.Accuser, len(dump.Chain))
	}
	if rep.Invariant != "" {
		fmt.Fprintln(out, "counterexample reproduced")
	}
	return nil
}

// sanitize makes a case name filesystem-safe.
func sanitize(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			return r
		default:
			return '_'
		}
	}, name)
}
