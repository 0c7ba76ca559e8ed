package experiments

import (
	"fmt"
	"strings"

	"repro/internal/costmodel"
)

// Table1Result is the reproduced component-time table of Section 5:
// fitted tick formulas for S_FT and the sequential host sort, with the
// measured points and fit quality.
type Table1Result struct {
	SFT        costmodel.Model
	Sequential costmodel.Model
	SFTPoints  []costmodel.Point
	SeqPoints  []costmodel.Point
	SFTCommR2  float64
	SFTCompR2  float64
	SFTTotalR2 float64
	SeqCommR2  float64
	SeqCompR2  float64
	SeqTotalR2 float64
}

// Table1 sweeps the given cube dimensions, measures S_FT and the host
// sort, and fits the basis shapes:
//
//	S_FT:       comm = A·lg²N + B·N    comp = C·N
//	Sequential: comm = D·N             comp = E·N·lgN
//
// The paper fits its S_FT communication with an N·lgN second term
// (0.05·N·lgN); over its measured range (N = 4..32) that basis is
// numerically indistinguishable from N, and the algorithm's actual
// per-node view traffic (Σ_i Σ_j 2^{i-j} keys) is Θ(N), so this
// reproduction fits the linear basis to keep large-system projections
// well-behaved. EXPERIMENTS.md records the substitution.
func Table1(dims []int, seed int64) (Table1Result, error) {
	var res Table1Result
	// The (dim, algorithm) points are independent — each owns a private
	// simulated network — so they run concurrently, slotted by index.
	res.SFTPoints = make([]costmodel.Point, len(dims))
	res.SeqPoints = make([]costmodel.Point, len(dims))
	err := forEach(2*len(dims), func(k int) error {
		algo, pts := SFT, res.SFTPoints
		if k%2 == 1 {
			algo, pts = HostSort, res.SeqPoints
		}
		ms, err := Measure(algo, dims[k/2], 1, seed)
		if err != nil {
			return fmt.Errorf("table1: %w", err)
		}
		pts[k/2] = ms.Point()
		return nil
	})
	if err != nil {
		return Table1Result{}, err
	}
	res.SFT, err = costmodel.Fit("S_FT (measured)", res.SFTPoints,
		[]costmodel.Basis{costmodel.BasisLg2N, costmodel.BasisLgN, costmodel.BasisN},
		[]costmodel.Basis{costmodel.BasisN})
	if err != nil {
		return Table1Result{}, err
	}
	res.Sequential, err = costmodel.Fit("Sequential (measured)", res.SeqPoints,
		[]costmodel.Basis{costmodel.BasisN},
		[]costmodel.Basis{costmodel.BasisNLgN})
	if err != nil {
		return Table1Result{}, err
	}
	res.SFTCommR2, res.SFTCompR2, res.SFTTotalR2, err = costmodel.FitQuality(res.SFT, res.SFTPoints)
	if err != nil {
		return Table1Result{}, err
	}
	res.SeqCommR2, res.SeqCompR2, res.SeqTotalR2, err = costmodel.FitQuality(res.Sequential, res.SeqPoints)
	if err != nil {
		return Table1Result{}, err
	}
	return res, nil
}

// Render formats the table side by side with the paper's constants.
func (t Table1Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Component-time table (Section 5) — measured simulator ticks vs paper clock ticks\n\n")
	fmt.Fprintf(&b, "%-12s  %-34s  %-26s\n", "Algorithm", "Communication Time", "Computation Time")
	fmt.Fprintf(&b, "%-12s  %-34s  %-26s\n", "S_FT", t.SFT.Comm.String(), t.SFT.Comp.String())
	fmt.Fprintf(&b, "%-12s  %-34s  %-26s\n", "  (paper)", costmodel.PaperSFT().Comm.String(), costmodel.PaperSFT().Comp.String())
	fmt.Fprintf(&b, "%-12s  %-34s  %-26s\n", "Sequential", t.Sequential.Comm.String(), t.Sequential.Comp.String())
	fmt.Fprintf(&b, "%-12s  %-34s  %-26s\n", "  (paper)", costmodel.PaperSequential().Comm.String(), costmodel.PaperSequential().Comp.String())
	fmt.Fprintf(&b, "\nFit quality: S_FT comm R²=%.4f comp R²=%.4f total R²=%.4f; Sequential comm R²=%.4f comp R²=%.4f total R²=%.4f\n",
		t.SFTCommR2, t.SFTCompR2, t.SFTTotalR2, t.SeqCommR2, t.SeqCompR2, t.SeqTotalR2)
	return b.String()
}

// Row is one cube size of Figure 6 (one key per node) or Figure 8 (M
// keys per node): S_NR, S_FT and the host sort measured on one input.
type Row struct {
	N, M           int
	SNR, SFT, Host Measurement
}

// sweep measures S_NR, S_FT and the host sort on each cube dimension
// with m keys per node. The (dim, algorithm) points are independent —
// each owns a private simulated network — so they run on the worker
// pool, each into its own slot, and the rows are assembled afterwards.
func sweep(dims []int, m int, seed int64) ([]Row, error) {
	algos := [...]Algorithm{SNR, SFT, HostSort}
	ms := make([]Measurement, len(algos)*len(dims))
	err := forEach(len(ms), func(k int) error {
		var err error
		ms[k], err = Measure(algos[k%len(algos)], dims[k/len(algos)], m, seed)
		return err
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Row, len(dims))
	for i, d := range dims {
		p := ms[len(algos)*i:]
		rows[i] = Row{N: 1 << uint(d), M: m, SNR: p[0], SFT: p[1], Host: p[2]}
	}
	return rows, nil
}

// Figure6Result is the small-cube comparison of Figure 6.
type Figure6Result struct {
	Rows []Row
	// SFTTheory and HostTheory are the fitted models' totals at each
	// row's N: the "theoretical" curves the paper plots against its
	// measurements.
	SFTTheory  []float64
	HostTheory []float64
	Fit        Table1Result
}

// Figure6 measures the three algorithms at the given dimensions
// (paper: N = 4, 8, 16, 32) and attaches fitted-model "theoretical"
// curves, as the paper plots measured against its fitted formulas.
// fitDims selects the sweep used to fit those curves; it needs at
// least three dimensions for the three-basis communication fit.
func Figure6(dims, fitDims []int, seed int64) (Figure6Result, error) {
	fit, err := Table1(fitDims, seed)
	if err != nil {
		return Figure6Result{}, err
	}
	rows, err := sweep(dims, 1, seed)
	if err != nil {
		return Figure6Result{}, fmt.Errorf("figure6: %w", err)
	}
	out := Figure6Result{Rows: rows, Fit: fit}
	for _, r := range rows {
		sftTheory, err := fit.SFT.Total(float64(r.N))
		if err != nil {
			return Figure6Result{}, err
		}
		hostTheory, err := fit.Sequential.Total(float64(r.N))
		if err != nil {
			return Figure6Result{}, err
		}
		out.SFTTheory = append(out.SFTTheory, sftTheory)
		out.HostTheory = append(out.HostTheory, hostTheory)
	}
	return out, nil
}

// Render formats the figure as the paper's observed/theoretical series.
func (f Figure6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — sorting time comparisons, small cubes (virtual ticks)\n\n")
	fmt.Fprintf(&b, "%6s  %12s  %12s  %12s  %14s  %14s  %9s\n",
		"N", "S_NR obs", "S_FT obs", "Host obs", "S_FT theory", "Host theory", "FT/NR")
	for i, r := range f.Rows {
		fmt.Fprintf(&b, "%6d  %12d  %12d  %12d  %14.0f  %14.0f  %8.2fx\n",
			r.N, r.SNR.Makespan, r.SFT.Makespan, r.Host.Makespan,
			f.SFTTheory[i], f.HostTheory[i], float64(r.SFT.Makespan)/float64(r.SNR.Makespan))
	}
	return b.String()
}

// Figure7Result is the large-system projection.
type Figure7Result struct {
	// Title heads the rendered table; empty means the Figure 7 default.
	Title string
	Rows  []costmodel.ProjectionRow
	// Models in row order: measured S_FT, measured Sequential,
	// paper S_FT, paper Sequential. Faulty-regime projections mix
	// formula models with recovery-aware ones, hence Coster.
	Models []costmodel.Coster
	// MeasuredCrossover and PaperCrossover are the smallest N where
	// S_FT beats the host sort under each pair of models.
	MeasuredCrossover int
	PaperCrossover    int
	// AsymptoticRatio is the measured S_FT/Sequential limit ratio
	// (paper: ~0.11).
	AsymptoticRatio float64
}

// Figure7 projects the fitted and paper models to large cubes.
func Figure7(fit Table1Result, minDim, maxDim int) (Figure7Result, error) {
	models := []costmodel.Coster{fit.SFT, fit.Sequential, costmodel.PaperSFT(), costmodel.PaperSequential()}
	rows, err := costmodel.Project(models, minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	mx, err := costmodel.Crossover(fit.SFT, fit.Sequential, minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	px, err := costmodel.Crossover(costmodel.PaperSFT(), costmodel.PaperSequential(), minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	ar, err := costmodel.AsymptoticRatio(fit.SFT, fit.Sequential)
	if err != nil {
		// A fitted model may lack a strict dominant-term match; treat
		// as unavailable rather than fatal.
		ar = 0
	}
	return Figure7Result{
		Rows: rows, Models: models,
		MeasuredCrossover: mx, PaperCrossover: px,
		AsymptoticRatio: ar,
	}, nil
}

// Render formats the projection table.
func (f Figure7Result) Render() string {
	var b strings.Builder
	title := f.Title
	if title == "" {
		title = "Figure 7 — projected sorting times, large systems (ticks)"
	}
	fmt.Fprintf(&b, "%s\n\n", title)
	fmt.Fprintf(&b, "%10s", "N")
	for _, m := range f.Models {
		fmt.Fprintf(&b, "  %22s", m.CostName())
	}
	fmt.Fprintln(&b)
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%10d", r.N)
		for _, v := range r.Totals {
			fmt.Fprintf(&b, "  %22.0f", v)
		}
		fmt.Fprintln(&b)
	}
	fmt.Fprintf(&b, "\nCrossover (S_FT beats host sort): measured N=%d, paper N=%d\n",
		f.MeasuredCrossover, f.PaperCrossover)
	if f.AsymptoticRatio > 0 {
		fmt.Fprintf(&b, "Asymptotic S_FT/Sequential ratio: measured %.3f (paper ~0.11)\n", f.AsymptoticRatio)
	}
	return b.String()
}

// Figure8Projection fits cost models to the measured block rows and
// projects them to larger cubes, mirroring what the paper does for its
// Figure 8 plot ("a right shift of Figure 6 due to the scale by m").
// It needs at least three measured dimensions for the three-basis fit.
func Figure8Projection(res Figure8Result, minDim, maxDim int) (Figure7Result, error) {
	if len(res.Rows) < 3 {
		return Figure7Result{}, fmt.Errorf("experiments: %d block rows, need >= 3 for fitting", len(res.Rows))
	}
	m := res.Rows[0].M
	var ftPts, hostPts []costmodel.Point
	for _, r := range res.Rows {
		ftPts = append(ftPts, r.SFT.Point())
		hostPts = append(hostPts, r.Host.Point())
	}
	ft, err := costmodel.Fit(fmt.Sprintf("block S_FT m=%d (measured)", m), ftPts,
		[]costmodel.Basis{costmodel.BasisLg2N, costmodel.BasisLgN, costmodel.BasisN},
		[]costmodel.Basis{costmodel.BasisN})
	if err != nil {
		return Figure7Result{}, err
	}
	host, err := costmodel.Fit(fmt.Sprintf("host sort m=%d (measured)", m), hostPts,
		[]costmodel.Basis{costmodel.BasisN},
		[]costmodel.Basis{costmodel.BasisNLgN})
	if err != nil {
		return Figure7Result{}, err
	}
	paperFT := costmodel.ScaleByBlock(costmodel.PaperSFT(), m)
	paperHost := costmodel.ScaleByBlock(costmodel.PaperSequential(), m)
	models := []costmodel.Coster{ft, host, paperFT, paperHost}
	rows, err := costmodel.Project(models, minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	mx, err := costmodel.Crossover(ft, host, minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	px, err := costmodel.Crossover(paperFT, paperHost, minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	return Figure7Result{
		Title:             fmt.Sprintf("Figure 8 projection — block sorting (m=%d) at scale (ticks)", m),
		Rows:              rows,
		Models:            models,
		MeasuredCrossover: mx,
		PaperCrossover:    px,
	}, nil
}

// Figure8Result is the block sort/merge comparison.
type Figure8Result struct {
	Rows []Row
	// Crossover is the smallest measured N at which the fault-tolerant
	// block sort beats host sorting (0 when it never does in range).
	Crossover int
}

// Figure8 measures block sorting at the given dimensions for a
// representative block size m, against the host baseline.
func Figure8(dims []int, m int, seed int64) (Figure8Result, error) {
	rows, err := sweep(dims, m, seed)
	if err != nil {
		return Figure8Result{}, fmt.Errorf("figure8: %w", err)
	}
	out := Figure8Result{Rows: rows}
	for _, r := range rows {
		if out.Crossover == 0 && r.SFT.Makespan < r.Host.Makespan {
			out.Crossover = r.N
		}
	}
	return out, nil
}

// Render formats the comparison.
func (f Figure8Result) Render() string {
	var b strings.Builder
	if len(f.Rows) > 0 {
		fmt.Fprintf(&b, "Figure 8 — block bitonic sort/merge vs host sort, m=%d keys/node (ticks)\n\n", f.Rows[0].M)
	}
	fmt.Fprintf(&b, "%8s  %14s  %14s  %14s  %10s\n", "N", "block S_NR", "block S_FT", "Host sort", "FT/host")
	for _, r := range f.Rows {
		fmt.Fprintf(&b, "%8d  %14d  %14d  %14d  %9.2fx\n",
			r.N, r.SNR.Makespan, r.SFT.Makespan, r.Host.Makespan,
			float64(r.SFT.Makespan)/float64(r.Host.Makespan))
	}
	if f.Crossover > 0 {
		fmt.Fprintf(&b, "\nFault-tolerant block sort beats host sort from N=%d\n", f.Crossover)
	} else {
		fmt.Fprintf(&b, "\nNo crossover in measured range\n")
	}
	return b.String()
}
