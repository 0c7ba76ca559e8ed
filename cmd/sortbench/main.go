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

	"repro/internal/experiments"
	"repro/internal/flaglist"
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
	if err := fs.Parse(args); err != nil {
		return err
	}

	var lists [3][]int
	for i, f := range []struct{ name, val string }{{"dims", *dims}, {"fitdims", *fitDims}, {"blockdims", *blockDims}} {
		l, err := flaglist.Parse[int](f.val)
		if err != nil {
			return fmt.Errorf("-%s: %w", f.name, err)
		}
		for _, d := range l {
			if d < 0 || d > 20 {
				return fmt.Errorf("-%s: dimension %d out of range [0,20]", f.name, d)
			}
		}
		lists[i] = l
	}
	dimList, fitList, blockList := lists[0], lists[1], lists[2]

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
