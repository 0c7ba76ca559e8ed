// Command faultcoverage measures the detection-coverage matrix: every
// adversary class (Byzantine messages, absence, lying comparators,
// corrupting memory) swept across fault rates, cube dimensions, and
// two block lengths of the fault-tolerant sort (S_FT's one key per
// node and -blocklen keys per node), with each run classified as
// detected, correct-despite-fault, or SILENT-WRONG.
//
// The run self-checks Theorem 3: any SILENT-WRONG cell fails the
// command with a non-zero exit. The measured per-class detection
// fractions are folded into the recovery-aware cost model as a
// coverage-calibrated regime and reported next to the idealized one.
//
//	faultcoverage                         # default sweep + calibration
//	faultcoverage -dims 2 -runs 4         # quick smoke sweep
//	faultcoverage -json matrix.json       # write the matrix artifact
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/flaglist"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faultcoverage:", err)
		os.Exit(1)
	}
}

// artifact is the JSON shape written by -json: the matrix, its
// per-class totals, the derived cost-model profile, and the
// self-check outcome.
type artifact struct {
	Cells       []experiments.CoverageCell
	Classes     []experiments.ClassCoverage
	Calibration costmodel.CoverageCalibration
	// EffectiveDetectFrac is the share-weighted detection fraction the
	// coverage-calibrated regime runs at.
	EffectiveDetectFrac float64
	// SilentWrong counts Theorem 3 escapes across the sweep; the
	// command exits non-zero unless it is 0.
	SilentWrong int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("faultcoverage", flag.ContinueOnError)
	dims := fs.String("dims", "2,3", "comma-separated cube dimensions to sweep")
	rates := fs.String("rates", "0.5,1", "fault rates for the comparison/memory classes")
	runs := fs.Int("runs", 8, "seeded injections per matrix cell")
	blockLen := fs.Int("blocklen", 2, "keys per node in the block-sort cells")
	seed := fs.Int64("seed", 1989, "sweep seed")
	timeout := fs.Duration("timeout", 150*time.Millisecond, "absence-detection timeout per run")
	lie := fs.Int64("lie", 1<<30, "lie value for message faults and stuck-at memory cells")
	mttf := fs.Float64("mttf", 1e6, "per-node MTTF (vticks) for the cost-model comparison")
	pfrac := fs.Float64("pfrac", 0.5, "persistent share of arrivals in the cost-model comparison")
	modelDim := fs.Int("modeldim", 10, "cube dimension the cost-model comparison prices")
	jsonPath := fs.String("json", "", "write the matrix + calibration as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dimList, err := flaglist.Parse[int](*dims)
	if err != nil {
		return fmt.Errorf("-dims: %w", err)
	}
	rateList, err := flaglist.Parse[float64](*rates)
	if err != nil {
		return fmt.Errorf("-rates: %w", err)
	}

	cells, err := experiments.MeasureCoverage(experiments.CoverageSweep{
		Dims:     dimList,
		Rates:    rateList,
		Runs:     *runs,
		BlockLen: *blockLen,
		Lie:      *lie,
		Seed:     *seed,
		Timeout:  *timeout,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", experiments.RenderCoverage(cells))

	// Coverage-calibrated cost regime: the measured per-class fractions
	// folded into the recovery model, against the idealized DetectFrac=1
	// baseline on the paper's S_FT formula model.
	cal, err := experiments.CalibrateCoverage(cells)
	if err != nil {
		return err
	}
	eff, err := cal.EffectiveDetectFrac()
	if err != nil {
		return err
	}
	base := costmodel.NewRecoveryModel(
		"S_FT+repair (ideal detection)",
		costmodel.PaperSFT(),
		costmodel.FaultRegime{MTTF: *mttf, PersistentFrac: *pfrac},
		costmodel.DefaultPolicyParams(),
		costmodel.DefaultCalibration(),
	)
	cov, err := base.WithCoverage("S_FT+repair (measured coverage)", cal)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Coverage-calibrated fault regime (MTTF %.3g vticks, dim %d)\n\n", *mttf, *modelDim)
	fmt.Fprintf(out, "  effective detection fraction: %.4f (share-weighted across classes)\n", eff)
	for _, cd := range cal.Classes {
		fmt.Fprintf(out, "    %-11s share %.3f detect %.3f\n", cd.Class, cd.Share, cd.DetectFrac)
	}
	fmt.Fprintln(out)
	fmt.Fprintf(out, "%-32s %14s %10s %10s %10s\n",
		"model", "E[ticks]", "attempts", "wasted", "overhead")
	for _, rm := range []*costmodel.RecoveryModel{base, cov} {
		bd, err := rm.Breakdown(*modelDim)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-32s %14.0f %10.3f %10.0f %9.2f%%\n",
			rm.CostName(), bd.ExpectedTicks, bd.ExpectedAttempts, bd.ExpectedWastedTicks, 100*bd.Overhead)
	}
	fmt.Fprintln(out)

	escapes := experiments.SilentWrongCells(cells)
	var silent int
	for _, c := range escapes {
		silent += c.Silent
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(artifact{
			Cells:               cells,
			Classes:             experiments.SummarizeCoverage(cells),
			Calibration:         cal,
			EffectiveDetectFrac: eff,
			SilentWrong:         silent,
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "matrix written to %s\n", *jsonPath)
	}

	// Theorem 3 self-check: the sweep must contain no undetected wrong
	// output.
	if len(escapes) > 0 {
		for _, c := range escapes {
			fmt.Fprintf(out, "SILENT-WRONG: %s d%d %s rate %.2f — %d/%d runs\n",
				c.Algo, c.Dim, c.Label, c.Rate, c.Silent, c.Runs)
		}
		return fmt.Errorf("theorem 3 violated: %d silent-wrong runs in %d cells", silent, len(escapes))
	}
	fmt.Fprintln(out, "self-check passed: no silent-wrong outcomes across the sweep")
	return nil
}
