// Command perfbench is the repository's service benchmark. It runs one
// workload against an in-process internal/server over the SRT1 stream
// protocol on a loopback listener, checks every reply against a
// reference sort computed during set-up, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics of a traced re-run)
// by name with their units. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//	bash perfbench/run.sh --workload small --seed 1 --seconds 20 --trace 0
//
// See BENCHMARK.md beside this file for the workloads, the metrics and
// what each per-layer metric should move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// options is one benchmark invocation.
type options struct {
	w       workload
	seed    int64
	seconds time.Duration
	trace   bool
	// out is the artifact directory; empty writes none.
	out string
	// setups is how many times an untraced run sets up; setup_s is the
	// median.
	setups int
	// jobs > 0 runs exactly that many timed jobs instead of --seconds.
	jobs int
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "small", "workload: small, large or faulty")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "length of the timed phase in seconds")
	trace := fs.Int("trace", 0, "1 re-runs the timed phase traced and reports per-layer metrics")
	out := fs.String("out", "", "directory for the report, profile and artifact files (empty: none)")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	w, err := workloadByName(*name)
	if err != nil {
		return options{}, err
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds %v: want a positive length", *seconds)
	}
	return options{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: *out, setups: 3,
	}, nil
}

func main() {
	opts, err := parseOptions(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := rep.write(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}
