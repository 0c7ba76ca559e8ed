// Recovery sweep: the measured side of the recovery-aware cost model.
// MeasureRecovery drives the recovery supervisor under a rate-based
// fault injector across a (dim × fault-load × spare-pool) grid,
// CalibrateRecovery fits the
// model's empirical terms (per-attempt cost formula, detection
// fraction, waste fraction) with the stats least-squares machinery,
// and ValidateRecovery checks the fitted model's expected-total-vticks
// predictions against the measured means cell by cell — the §5
// analysis carried from detection to repair, with the model held to
// the data.
package experiments

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/fault"
	"repro/internal/recovery"
	"repro/internal/reliablesort"
	"repro/internal/stats"
)

// RecoverySweep configures a MeasureRecovery grid. The zero value
// selects the default sweep.
type RecoverySweep struct {
	// Dims are the initial cube dimensions (default {2, 3}).
	Dims []int
	// Loads are the fault pressures to sweep: expected fault arrivals
	// per fault-free attempt (n·T/MTTF), the dimensionless axis that
	// keeps cells comparable across cube sizes. Each load is converted
	// to a per-node MTTF per cell (default {0.25, 0.75}).
	Loads []float64
	// SparePools are the spare-pool sizes (default {0, 2}).
	SparePools []int
	// Runs is the number of seeded supervisions per cell (default 48).
	Runs int
	// BlockLen is the keys-per-node workload scale (default 2).
	BlockLen int
	// MaxAttempts is the supervisor budget per run (default 5).
	MaxAttempts int
	// PersistentFrac is the persistent share of arrivals (default 0.5).
	PersistentFrac float64
	// Seed roots the whole sweep; every cell and run derives
	// deterministically from it.
	Seed int64
}

func (s RecoverySweep) withDefaults() RecoverySweep {
	if len(s.Dims) == 0 {
		s.Dims = []int{2, 3}
	}
	if len(s.Loads) == 0 {
		s.Loads = []float64{0.25, 0.75}
	}
	if len(s.SparePools) == 0 {
		s.SparePools = []int{0, 2}
	}
	if s.Runs <= 0 {
		s.Runs = 48
	}
	if s.BlockLen <= 0 {
		s.BlockLen = 2
	}
	if s.MaxAttempts <= 0 {
		s.MaxAttempts = 5
	}
	if s.PersistentFrac <= 0 {
		s.PersistentFrac = 0.5
	}
	if s.Seed == 0 {
		s.Seed = 1989
	}
	return s
}

// calibrationStrategies is the Byzantine pool the rate injector draws
// from: strategies whose diagnosis reliably attributes the top suspect
// to the injected site, so the supervisor's persistent-streak
// machinery behaves as the model's state machine assumes. (Weakly
// attributed strategies remain covered by the scenario-based chaos
// harness; here attribution noise would contaminate the calibration.)
func calibrationStrategies() []fault.Strategy {
	return []fault.Strategy{fault.KeyLie, fault.SplitLie, fault.WrongCompare}
}

// rateConfig parameterizes a rateInjector: a memoryless fault-arrival
// process in the MTTF framing of the recovery-aware cost model
// (costmodel.FaultRegime).
type rateConfig struct {
	// MTTF is the per-node mean virtual time between fault arrivals,
	// in vticks. The probability that some fault arrives during an
	// attempt of T ticks on n nodes is 1 − exp(−n·T/MTTF).
	MTTF float64
	// Baselines maps cube dimension → fault-free attempt vticks for
	// the workload under test; the injector prices each attempt's
	// exposure window with the same numbers the cost model uses, so
	// measured and modeled arrival rates agree exactly.
	Baselines map[int]float64
	// PersistentFrac is the probability an arrival is persistent: it
	// re-manifests at its site every attempt until the site is
	// quarantined out of the cube.
	PersistentFrac float64
	// Strategies is the Byzantine behaviour pool, drawn uniformly per
	// arrival.
	Strategies []fault.Strategy
	// Seed drives the injector's private arrival/site/strategy stream.
	Seed int64
}

// rateInjector drives a rate-based fault process through
// reliablesort.Options.Inject. It is stateful: a persistent arrival
// follows its physical site through remaps until quarantined, and at
// most one fault is active at a time (the single-fault regime of the
// paper's Theorem 3, which both the detection guarantee and the cost
// model's recursion assume). Each supervision needs its own injector.
type rateInjector struct {
	cfg rateConfig
	rng *rand.Rand

	// active injects the live persistent fault at activeSite; nil
	// means none.
	active     func(attempt, dim int, physical []int) []core.Options
	activeSite int
	// lastSite is the most recently manifested site. New arrivals
	// avoid it so a transient episode and an unrelated follow-up at
	// the same site cannot masquerade as a persistent streak — real
	// independent arrivals on distinct parts, which is also exactly
	// what the cost model's state machine prices.
	lastSite int

	// manifestations counts attempts in which a fault was active —
	// the denominator of the measured detection fraction.
	manifestations int64
}

func newRateInjector(cfg rateConfig) *rateInjector {
	return &rateInjector{
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		lastSite: -1,
	}
}

// inject implements reliablesort.Options.Inject for the rate process.
func (ri *rateInjector) inject(attempt, dim int, physical []int) []core.Options {
	// A live persistent fault re-manifests while its site is mapped;
	// once quarantine removed the site, the episode is over.
	if ri.active != nil {
		if opts := ri.active(attempt, dim, physical); opts != nil {
			ri.manifestations++
			ri.lastSite = ri.activeSite
			return opts
		}
		ri.active = nil
	}
	t, ok := ri.cfg.Baselines[dim]
	if !ok || ri.cfg.MTTF <= 0 || len(ri.cfg.Strategies) == 0 {
		return nil
	}
	p := 1 - math.Exp(-float64(int64(1)<<uint(dim))*t/ri.cfg.MTTF)
	if ri.rng.Float64() >= p {
		return nil
	}
	// Fresh arrival: uniform over mapped sites, avoiding the most
	// recently manifested one.
	site := ri.pickSite(physical)
	if site < 0 {
		return nil
	}
	st := ri.cfg.Strategies[ri.rng.Intn(len(ri.cfg.Strategies))]
	inject := fault.Follow(fault.Set{{Msg: &fault.Spec{Node: site, Strategy: st, ActivateStage: 1, LieValue: 7777}}}, true)
	if ri.rng.Float64() < ri.cfg.PersistentFrac {
		ri.active, ri.activeSite = inject, site
	}
	ri.manifestations++
	ri.lastSite = site
	return inject(attempt, dim, physical)
}

func (ri *rateInjector) pickSite(physical []int) int {
	candidates := make([]int, 0, len(physical))
	for _, ph := range physical {
		if ph != ri.lastSite {
			candidates = append(candidates, ph)
		}
	}
	if len(candidates) == 0 {
		candidates = physical
	}
	if len(candidates) == 0 {
		return -1
	}
	return candidates[ri.rng.Intn(len(candidates))]
}

// RecoveryCell is one sweep cell's configuration and measured
// aggregates over its seeded runs.
type RecoveryCell struct {
	// Dim, Load, Spares echo the grid coordinates; MTTF is the
	// per-node mean time between faults the load translates to for
	// this cell's workload (n·T(dim)/Load vticks).
	Dim    int
	Load   float64
	MTTF   float64
	Spares int
	// Runs, MaxAttempts, PersistentFrac echo the sweep config.
	Runs           int
	MaxAttempts    int
	PersistentFrac float64
	// Baselines maps cube dimension → measured fault-free attempt
	// vticks for this cell's workload, for every dimension quarantine
	// can reach.
	Baselines map[int]float64
	// MeanTotalTicks is the measured E[Σ attempt costs] — the
	// quantity the cost model predicts.
	MeanTotalTicks float64
	// MeanAttempts, MeanWastedTicks, MeanBackoffNanos are the other
	// measured expectations.
	MeanAttempts     float64
	MeanWastedTicks  float64
	MeanBackoffNanos float64
	// Manifestations and Failures count fault-active attempts and
	// fail-stopped attempts across the cell's runs: their ratio is
	// the measured detection fraction.
	Manifestations int64
	Failures       int64
	// Exhausted counts runs that escalated with ExhaustedError.
	Exhausted int
	// Quarantines and Substitutions count repair actions.
	Quarantines   int64
	Substitutions int64
	// WastePairs holds one (fault-free attempt ticks at the failed
	// attempt's dim, failed attempt's measured cost) sample per failed
	// attempt, for the through-origin waste-fraction fit.
	WastePairs [][2]float64
}

// MeasureRecovery runs the sweep and returns one measured cell per
// (dim, load, spare-pool) grid point. Cells run concurrently on the
// shared worker pool; runs within a cell are sequential and
// deterministic in the sweep seed.
func MeasureRecovery(cfg RecoverySweep) ([]RecoveryCell, error) {
	cfg = cfg.withDefaults()
	type coord struct {
		dim, spares int
		load        float64
	}
	var coords []coord
	for _, d := range cfg.Dims {
		if d < 2 {
			return nil, fmt.Errorf("experiments: recovery sweep dim %d < 2", d)
		}
		for _, load := range cfg.Loads {
			if load <= 0 {
				return nil, fmt.Errorf("experiments: recovery sweep load %v <= 0", load)
			}
			for _, sp := range cfg.SparePools {
				coords = append(coords, coord{dim: d, spares: sp, load: load})
			}
		}
	}
	cells := make([]RecoveryCell, len(coords))
	err := forEach(len(coords), func(i int) error {
		c := coords[i]
		cell, err := measureRecoveryCell(cfg, c.dim, c.load, c.spares, cfg.Seed+int64(i)*7919)
		if err != nil {
			return fmt.Errorf("experiments: recovery cell dim=%d load=%v spares=%d: %w",
				c.dim, c.load, c.spares, err)
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

func measureRecoveryCell(cfg RecoverySweep, dim int, load float64, spares int, cellSeed int64) (RecoveryCell, error) {
	n := 1 << uint(dim)
	keys := Keys(n*cfg.BlockLen, cellSeed)

	// Fault-free baselines for every dimension quarantine can reach:
	// the same workload on the degraded geometry, measured with the
	// same entry point the supervised attempts use.
	baselines := make(map[int]float64, dim)
	for d := dim; d >= 1; d-- {
		_, st, err := reliablesort.Sort(keys, reliablesort.Options{Dim: d})
		if err != nil {
			return RecoveryCell{}, fmt.Errorf("baseline dim %d: %w", d, err)
		}
		if st.Makespan <= 0 {
			return RecoveryCell{}, fmt.Errorf("baseline dim %d: makespan %d", d, st.Makespan)
		}
		baselines[d] = float64(st.Makespan)
	}

	cell := RecoveryCell{
		Dim: dim, Load: load, Spares: spares,
		MTTF:           float64(n) * baselines[dim] / load,
		Runs:           cfg.Runs,
		MaxAttempts:    cfg.MaxAttempts,
		PersistentFrac: cfg.PersistentFrac,
		Baselines:      baselines,
	}

	var totalTicks, totalAttempts, wasted, backoff float64
	for r := 0; r < cfg.Runs; r++ {
		inj := newRateInjector(rateConfig{
			MTTF:           cell.MTTF,
			Baselines:      baselines,
			PersistentFrac: cfg.PersistentFrac,
			Strategies:     calibrationStrategies(),
			Seed:           cellSeed ^ (int64(r)+1)*0x9E3779B9,
		})
		_, st, err := reliablesort.Sort(keys, reliablesort.Options{
			Dim:         dim,
			MaxAttempts: cfg.MaxAttempts,
			Spares:      spares,
			Sleep:       func(time.Duration) {},
			Seed:        cellSeed + int64(r) + 1,
			Inject:      inj.inject,
		})
		var attempts []recovery.Attempt
		switch {
		case err == nil:
			if st.Recovery == nil {
				return RecoveryCell{}, errors.New("supervised success without recovery report")
			}
			attempts = st.Recovery.Attempts
		default:
			var ex *recovery.ExhaustedError
			if !errors.As(err, &ex) {
				return RecoveryCell{}, fmt.Errorf("run %d: %w", r, err)
			}
			attempts = ex.Attempts
			cell.Exhausted++
		}
		totalAttempts += float64(len(attempts))
		for _, a := range attempts {
			totalTicks += float64(a.Cost)
			backoff += float64(a.Backoff)
			if a.Err != nil {
				cell.Failures++
				wasted += float64(a.Cost)
				cell.WastePairs = append(cell.WastePairs, [2]float64{baselines[a.Dim], float64(a.Cost)})
			}
			if a.Quarantined != recovery.NoNode {
				cell.Quarantines++
				if a.Substituted != recovery.NoNode {
					cell.Substitutions++
				}
			}
		}
		cell.Manifestations += inj.manifestations
	}
	runs := float64(cfg.Runs)
	cell.MeanTotalTicks = totalTicks / runs
	cell.MeanAttempts = totalAttempts / runs
	cell.MeanWastedTicks = wasted / runs
	cell.MeanBackoffNanos = backoff / runs
	return cell, nil
}

// RecoveryCalibration is the fitted model input CalibrateRecovery
// produces from a measured sweep.
type RecoveryCalibration struct {
	// Attempt is the fitted fault-free per-attempt cost formula over
	// N, from the cells' top-level baselines (the recovery analogue of
	// the Section 5 component table, in makespan rather than split
	// comm/comp ticks).
	Attempt costmodel.Formula
	// AttemptR2 scores the attempt fit against its points.
	AttemptR2 float64
	// Calib carries the fitted detection and waste fractions.
	Calib costmodel.Calibration
	// PersistentFrac echoes the sweep's transient/persistent split.
	PersistentFrac float64
}

// attemptBases are the fitted bases for the per-attempt makespan: the
// paper's dominant S_FT terms (lg²N latency plus linear volume).
var attemptBases = []costmodel.Basis{costmodel.BasisLg2N, costmodel.BasisN}

// CalibrateRecovery fits the recovery model's empirical terms from a
// measured sweep: the per-attempt cost formula by least squares over
// the cells' baselines, the waste fraction by a through-origin fit of
// failed-attempt cost against the fault-free attempt cost, and the
// detection fraction as the failure share of fault manifestations.
func CalibrateRecovery(cells []RecoveryCell) (RecoveryCalibration, error) {
	if len(cells) == 0 {
		return RecoveryCalibration{}, errors.New("experiments: no recovery cells to calibrate")
	}
	var ns []int
	var ticks []float64
	var wasteX [][]float64
	var wasteY []float64
	var manifests, failures int64
	for _, c := range cells {
		ns = append(ns, 1<<uint(c.Dim))
		ticks = append(ticks, c.Baselines[c.Dim])
		manifests += c.Manifestations
		failures += c.Failures
		for _, p := range c.WastePairs {
			wasteX = append(wasteX, []float64{p[0]})
			wasteY = append(wasteY, p[1])
		}
	}
	cal := RecoveryCalibration{PersistentFrac: cells[0].PersistentFrac}

	// A sweep over a single cube size cannot resolve two bases; drop
	// to the dominant linear term rather than failing the whole
	// calibration (the detection/waste fits don't need the span).
	distinct := map[int]bool{}
	for _, n := range ns {
		distinct[n] = true
	}
	bases := attemptBases
	if len(distinct) < len(bases) {
		bases = attemptBases[len(attemptBases)-1:]
	}
	attempt, err := costmodel.FitSeries(ns, ticks, bases)
	if err != nil {
		return RecoveryCalibration{}, fmt.Errorf("experiments: attempt-cost fit: %w", err)
	}
	cal.Attempt = attempt
	pred := make([]float64, len(ns))
	for i, n := range ns {
		if pred[i], err = attempt.Eval(float64(n)); err != nil {
			return RecoveryCalibration{}, err
		}
	}
	if cal.AttemptR2, err = stats.RSquared(ticks, pred); err != nil {
		return RecoveryCalibration{}, err
	}

	if manifests == 0 {
		return RecoveryCalibration{}, errors.New("experiments: sweep produced no fault manifestations; raise the load")
	}
	cal.Calib.DetectFrac = float64(failures) / float64(manifests)
	if len(wasteY) == 0 {
		cal.Calib.WasteFrac = 1
	} else {
		coef, err := stats.LeastSquares(wasteX, wasteY)
		if err != nil {
			return RecoveryCalibration{}, fmt.Errorf("experiments: waste-fraction fit: %w", err)
		}
		cal.Calib.WasteFrac = coef[0]
	}
	return cal, nil
}

// CellModel builds the recovery-aware cost model for one measured
// cell: measured baselines as the attempt-cost table, the cell's fault
// regime and supervisor policy, and the sweep-wide calibration.
func CellModel(cell RecoveryCell, cal RecoveryCalibration) *costmodel.RecoveryModel {
	return &costmodel.RecoveryModel{
		Name:         fmt.Sprintf("d%d load %.2g spares %d", cell.Dim, cell.Load, cell.Spares),
		AttemptTicks: costmodel.AttemptTable(cell.Baselines),
		Regime:       costmodel.FaultRegime{MTTF: cell.MTTF, PersistentFrac: cell.PersistentFrac},
		Policy:       costmodel.PolicyParams{MaxAttempts: cell.MaxAttempts, Spares: cell.Spares},
		Calib:        cal.Calib,
	}
}

// RecoveryValidation is one cell's modeled-vs-measured comparison.
type RecoveryValidation struct {
	Cell RecoveryCell
	// Breakdown is the model's expectation decomposition for the cell.
	Breakdown costmodel.Breakdown
	// Predicted and Measured are E[total vticks], modeled vs measured.
	Predicted float64
	Measured  float64
	// RelErr is |Predicted−Measured|/Measured; Within reports whether
	// it landed inside the tolerance.
	RelErr float64
	Within bool
}

// ValidateRecovery compares the calibrated model's expected total
// vticks against every measured cell and returns the per-cell results.
// tol is the acceptance tolerance as a fraction (0.10 for the 10%
// criterion).
func ValidateRecovery(cells []RecoveryCell, cal RecoveryCalibration, tol float64) ([]RecoveryValidation, error) {
	out := make([]RecoveryValidation, 0, len(cells))
	for _, cell := range cells {
		bd, err := CellModel(cell, cal).Breakdown(cell.Dim)
		if err != nil {
			return nil, fmt.Errorf("experiments: cell d%d load %v spares %d: %w", cell.Dim, cell.Load, cell.Spares, err)
		}
		v := RecoveryValidation{
			Cell:      cell,
			Breakdown: bd,
			Predicted: bd.ExpectedTicks,
			Measured:  cell.MeanTotalTicks,
		}
		if v.Measured > 0 {
			v.RelErr = absf(v.Predicted-v.Measured) / v.Measured
		}
		v.Within = v.RelErr <= tol
		out = append(out, v)
	}
	return out, nil
}

// Figure7Faulty answers the Figure 7 question with repair cost
// included: it projects the measured S_FT model, recovery-aware
// variants of it at the given per-node MTTFs (using the sweep's
// calibration and the supervisor's default policy), and the measured
// sequential model, and reports where reliable parallel sorting still
// beats the host under the least reliable regime.
func Figure7Faulty(fit Table1Result, cal RecoveryCalibration, mttfs []float64, minDim, maxDim int) (Figure7Result, error) {
	if len(mttfs) == 0 {
		return Figure7Result{}, errors.New("experiments: no MTTF values for the faulty projection")
	}
	models := []costmodel.Coster{fit.SFT}
	var worst *costmodel.RecoveryModel
	for _, mttf := range mttfs {
		rm := costmodel.NewRecoveryModel(
			fmt.Sprintf("S_FT+repair MTTF=%.3g", mttf),
			fit.SFT,
			costmodel.FaultRegime{MTTF: mttf, PersistentFrac: cal.PersistentFrac},
			costmodel.PolicyParams{},
			cal.Calib,
		)
		models = append(models, rm)
		if worst == nil || mttf < worst.Regime.MTTF {
			worst = rm
		}
	}
	models = append(models, fit.Sequential)
	rows, err := costmodel.Project(models, minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	// Crossover of the least reliable regime against the host sort:
	// the repair loop's tax on the paper's closing claim.
	fx, err := costmodel.Crossover(worst, fit.Sequential, minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	px, err := costmodel.Crossover(fit.SFT, fit.Sequential, minDim, maxDim)
	if err != nil {
		return Figure7Result{}, err
	}
	return Figure7Result{
		Title:             "Figure 7 (faulty regime) — projected sorting times with repair cost (ticks)",
		Rows:              rows,
		Models:            models,
		MeasuredCrossover: fx,
		PaperCrossover:    px,
	}, nil
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
