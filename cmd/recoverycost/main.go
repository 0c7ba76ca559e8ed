// Command recoverycost calibrates and validates the recovery-aware
// cost model: the Section 5 overhead analysis carried from detection
// to repair.
//
// It measures a seeded (dim × fault-load × spare-pool) sweep with the
// rate-based chaos injector, fits the model's empirical terms
// (detection fraction, waste fraction, per-attempt cost), checks the
// model's E[total vticks] prediction against the measured mean in
// every cell, and reprints the Figure 7 projection with repair cost
// layered onto the fitted S_FT model at chosen MTTFs:
//
//	recoverycost                          # default sweep + projection
//	recoverycost -dims 2 -runs 8          # quick smoke sweep
//	recoverycost -json model.json         # write the fitted model artifact
//	recoverycost -plot                    # ASCII overhead + projection charts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"repro/internal/experiments"
	"repro/internal/flaglist"
	"repro/internal/plot"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "recoverycost:", err)
		os.Exit(1)
	}
}

// artifact is the JSON shape written by -json: the fitted calibration
// plus the per-cell validation record, the machine-readable form of
// everything the text report states.
type artifact struct {
	Calibration experiments.RecoveryCalibration
	Validation  []experiments.RecoveryValidation
	Tolerance   float64
	CellsWithin int
	CellsTotal  int
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("recoverycost", flag.ContinueOnError)
	dims := fs.String("dims", "2,3", "comma-separated cube dimensions to sweep")
	loads := fs.String("loads", "0.25,0.75", "fault loads: expected arrivals per fault-free attempt")
	spares := fs.String("spares", "0,2", "spare-pool sizes to sweep")
	runs := fs.Int("runs", 48, "supervised runs per sweep cell")
	blockLen := fs.Int("blocklen", 2, "keys per node in the sweep workload")
	maxAttempts := fs.Int("maxattempts", 5, "supervisor attempt budget per run")
	pfrac := fs.Float64("pfrac", 0.5, "persistent share of injected faults")
	seed := fs.Int64("seed", 1989, "sweep seed")
	tol := fs.Float64("tol", 0.10, "validation tolerance (fraction of measured)")
	fitDims := fs.String("fitdims", "2,3,4,5", "cube dimensions used to fit the fault-free cost models")
	mttfs := fs.String("mttf", "1e7,1e6,1e5", "per-node MTTFs (vticks) for the faulty Figure 7 projection")
	maxProjDim := fs.Int("maxprojdim", 16, "largest cube dimension in the projection")
	plotFlag := fs.Bool("plot", false, "also render ASCII charts")
	jsonPath := fs.String("json", "", "write the fitted model + validation as JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	dimList, err := flaglist.Parse[int](*dims)
	if err != nil {
		return fmt.Errorf("-dims: %w", err)
	}
	fitList, err := flaglist.Parse[int](*fitDims)
	if err != nil {
		return fmt.Errorf("-fitdims: %w", err)
	}
	spareList, err := flaglist.Parse[int](*spares)
	if err != nil {
		return fmt.Errorf("-spares: %w", err)
	}
	loadList, err := flaglist.Parse[float64](*loads)
	if err != nil {
		return fmt.Errorf("-loads: %w", err)
	}
	mttfList, err := flaglist.Parse[float64](*mttfs)
	if err != nil {
		return fmt.Errorf("-mttf: %w", err)
	}

	// Measure and calibrate.
	cells, err := experiments.MeasureRecovery(experiments.RecoverySweep{
		Dims:           dimList,
		Loads:          loadList,
		SparePools:     spareList,
		Runs:           *runs,
		BlockLen:       *blockLen,
		MaxAttempts:    *maxAttempts,
		PersistentFrac: *pfrac,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}
	cal, err := experiments.CalibrateRecovery(cells)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Recovery-aware cost model — calibration (seed %d, %d runs/cell)\n\n", *seed, *runs)
	fmt.Fprintf(out, "  per-attempt cost:   %s (R²=%.4f)\n", cal.Attempt, cal.AttemptR2)
	fmt.Fprintf(out, "  detection fraction: %.4f\n", cal.Calib.DetectFrac)
	fmt.Fprintf(out, "  waste fraction:     %.4f of a fault-free attempt per failure\n", cal.Calib.WasteFrac)
	fmt.Fprintf(out, "  persistent share:   %.2f\n\n", cal.PersistentFrac)

	// Validate model against every measured cell.
	vals, err := experiments.ValidateRecovery(cells, cal, *tol)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "Validation — modeled vs measured E[total vticks] (tolerance %.0f%%)\n\n", 100**tol)
	fmt.Fprintf(out, "%5s %6s %7s  %12s %12s %8s %7s\n",
		"dim", "load", "spares", "predicted", "measured", "relerr", "within")
	within := 0
	for _, v := range vals {
		mark := "no"
		if v.Within {
			mark = "yes"
			within++
		}
		fmt.Fprintf(out, "%5d %6.2f %7d  %12.0f %12.0f %7.1f%% %7s\n",
			v.Cell.Dim, v.Cell.Load, v.Cell.Spares, v.Predicted, v.Measured, 100*v.RelErr, mark)
	}
	fmt.Fprintf(out, "\n%d/%d cells within tolerance\n\n", within, len(vals))

	if *plotFlag {
		chart, err := overheadChart(cells, cal)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, chart)
	}

	// Project: Figure 7 with repair cost at the requested MTTFs.
	fit, err := experiments.Table1(fitList, *seed)
	if err != nil {
		return err
	}
	fig, err := experiments.Figure7Faulty(fit, cal, mttfList, 2, *maxProjDim)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, fig.Render())
	fmt.Fprintln(out, "(crossover: measured = repair-aware at the worst swept MTTF, paper = fault-free fit)")
	fmt.Fprintln(out)
	if *plotFlag {
		chart, err := projectionChart(fig)
		if err != nil {
			return err
		}
		fmt.Fprintln(out, chart)
	}

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(artifact{
			Calibration: cal,
			Validation:  vals,
			Tolerance:   *tol,
			CellsWithin: within,
			CellsTotal:  len(vals),
		}, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(blob, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "fitted model written to %s\n", *jsonPath)
	}
	if within < len(vals) {
		return fmt.Errorf("%d of %d cells outside the %.0f%% tolerance", len(vals)-within, len(vals), 100**tol)
	}
	return nil
}

// overheadChart plots the calibrated model's expected overhead against
// fault load for each swept (dim, spares) curve, the repair-cost
// analogue of the paper's overhead-vs-faults discussion.
func overheadChart(cells []experiments.RecoveryCell, cal experiments.RecoveryCalibration) (string, error) {
	type curveKey struct{ dim, spares int }
	curves := map[curveKey][]experiments.RecoveryCell{}
	var order []curveKey
	for _, c := range cells {
		k := curveKey{c.Dim, c.Spares}
		if _, ok := curves[k]; !ok {
			order = append(order, k)
		}
		curves[k] = append(curves[k], c)
	}
	var series []plot.Series
	var ticks []string
	runes := []rune{'a', 'b', 'c', 'd', 'e', 'f', 'g', 'h'}
	if len(curves[order[0]]) < 2 {
		return "(overhead chart needs at least two fault loads)", nil
	}
	for i, k := range order {
		cs := curves[k]
		ys := make([]float64, len(cs))
		for j, c := range cs {
			bd, err := experiments.CellModel(c, cal).Breakdown(c.Dim)
			if err != nil {
				return "", err
			}
			ys[j] = 100 * bd.Overhead
		}
		if i == 0 {
			ticks = make([]string, len(cs))
			for j, c := range cs {
				ticks[j] = fmt.Sprintf("%.2f", c.Load)
			}
		}
		series = append(series, plot.Series{
			Name: fmt.Sprintf("d=%d spares=%d", k.dim, k.spares),
			Rune: runes[i%len(runes)],
			Y:    ys,
		})
	}
	return plot.Render(plot.Config{
		Title:  "Modeled recovery overhead vs fault load",
		XLabel: "arrivals per fault-free attempt",
		YLabel: "% over baseline",
		XTicks: ticks,
	}, series)
}

// projectionChart plots every model in the faulty Figure 7 projection,
// not just the first pair the generic figure plot shows.
func projectionChart(fig experiments.Figure7Result) (string, error) {
	ticks := make([]string, len(fig.Rows))
	for i, r := range fig.Rows {
		ticks[i] = strconv.Itoa(r.N)
	}
	runes := []rune{'F', '1', '2', '3', '4', '5', 'h'}
	var series []plot.Series
	for j, m := range fig.Models {
		ys := make([]float64, len(fig.Rows))
		for i, r := range fig.Rows {
			ys[i] = r.Totals[j]
		}
		r := runes[len(runes)-1]
		if j < len(runes)-1 {
			r = runes[j]
		}
		series = append(series, plot.Series{Name: m.CostName(), Rune: r, Y: ys})
	}
	return plot.Render(plot.Config{
		Title:  fig.Title,
		XLabel: "nodes",
		YLabel: "virtual ticks",
		XTicks: ticks,
		LogY:   true,
	}, series)
}
