// Command sortbench regenerates the paper's evaluation artifacts on
// the simulated multicomputer:
//
//	sortbench -experiment table1          # Section 5 component-time table
//	sortbench -experiment fig6            # small-cube observed/theoretical times
//	sortbench -experiment fig7            # large-system projections + crossover
//	sortbench -experiment fig8 -m 64      # block sort/merge vs host sort
//	sortbench -experiment all             # everything
//
// Flags select cube sizes, block size, and the workload seed; output
// is plain text, one table per experiment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sortbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sortbench", flag.ContinueOnError)
	experiment := fs.String("experiment", "all", "table1 | fig6 | fig7 | fig8 | all")
	dims := fs.String("dims", "2,3,4,5", "comma-separated cube dimensions to measure")
	fitDims := fs.String("fitdims", "2,3,4,5,6,7", "cube dimensions used to fit the cost models")
	blockDims := fs.String("blockdims", "2,3,4,5", "cube dimensions for the block experiment")
	m := fs.Int("m", 64, "block size (keys per node) for fig8")
	seed := fs.Int64("seed", 1989, "workload seed")
	plotFlag := fs.Bool("plot", false, "also render ASCII charts of the figures")
	maxProjDim := fs.Int("maxprojdim", 16, "largest cube dimension in fig7 projections")
	obsListen := fs.String("obs.listen", "", "serve /metrics on this address while the experiments run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *obsListen != "" {
		// The simnet transports feed the process-wide default registry,
		// so the endpoint sees every experiment's traffic counters.
		addr, err := obs.Serve(*obsListen, obs.DefaultRegistry())
		if err != nil {
			return fmt.Errorf("obs.listen: %w", err)
		}
		fmt.Fprintf(os.Stderr, "observability endpoint on http://%s/metrics\n", addr)
	}

	dimList, err := parseDims(*dims)
	if err != nil {
		return err
	}
	fitList, err := parseDims(*fitDims)
	if err != nil {
		return err
	}
	blockList, err := parseDims(*blockDims)
	if err != nil {
		return err
	}

	want := func(name string) bool { return *experiment == "all" || *experiment == name }
	ran := false

	var fit experiments.Table1Result
	haveFit := false
	ensureFit := func() error {
		if haveFit {
			return nil
		}
		var err error
		fit, err = experiments.Table1(fitList, *seed)
		if err != nil {
			return err
		}
		haveFit = true
		return nil
	}

	if want("table1") {
		ran = true
		if err := ensureFit(); err != nil {
			return err
		}
		fmt.Fprintln(out, fit.Render())
	}
	if want("fig6") {
		ran = true
		res, err := experiments.Figure6(dimList, fitList, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
		if *plotFlag {
			chart, err := res.Plot()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, chart)
		}
	}
	if want("fig7") {
		ran = true
		if err := ensureFit(); err != nil {
			return err
		}
		res, err := experiments.Figure7(fit, 2, *maxProjDim)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
		if *plotFlag {
			chart, err := res.Plot()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, chart)
		}
	}
	if want("fig8") {
		ran = true
		res, err := experiments.Figure8(blockList, *m, *seed)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, res.Render())
		if *plotFlag {
			chart, err := res.Plot()
			if err != nil {
				return err
			}
			fmt.Fprintln(out, chart)
		}
		if len(blockList) >= 3 {
			proj, err := experiments.Figure8Projection(res, 2, *maxProjDim)
			if err != nil {
				return err
			}
			fmt.Fprintln(out, proj.Render())
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q (want table1|fig6|fig7|fig8|all)", *experiment)
	}
	return nil
}

func parseDims(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		d, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad dimension %q: %w", part, err)
		}
		if d < 0 || d > 20 {
			return nil, fmt.Errorf("dimension %d out of range [0,20]", d)
		}
		out = append(out, d)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no dimensions in %q", s)
	}
	return out, nil
}
