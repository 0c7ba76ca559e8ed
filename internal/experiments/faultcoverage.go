// Detection-coverage matrix: the Theorem 3 claim held against every
// adversary class at once. MeasureCoverage sweeps fault class × rate ×
// cube dimension × algorithm (S_FT and the fault-tolerant block sort)
// through the fault package's injectors and tallies, per cell, how
// often the run fail-stopped (and on which predicate), finished
// correct despite the fault, or — the outcome the theorem forbids —
// finished undetected with a wrong output. CalibrateCoverage folds the
// per-class detection fractions into a costmodel.CoverageCalibration
// so the recovery model can price machines whose faults are not all
// wire lies.
package experiments

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/costmodel"
	"repro/internal/fault"
	"repro/internal/obs"
)

// Algorithm names used in coverage cells.
const (
	AlgoSFT     = "S_FT"
	AlgoBlockFT = "BlockFT"
)

// CoverageSweep configures a MeasureCoverage grid. The zero value
// selects the default sweep.
type CoverageSweep struct {
	// Dims are the cube dimensions (default {2, 3}).
	Dims []int
	// Rates are the fault rates swept for the rate-parameterized
	// classes (comparison and memory); message and absence strategies
	// are all-or-nothing and run once per cell (default {0.5, 1}).
	Rates []float64
	// Runs is the number of seeded injections per cell; the faulty
	// node and the fault seed vary per run (default 8).
	Runs int
	// BlockLen is the keys-per-node width of the block-sort cells
	// (default 2).
	BlockLen int
	// Lie parameterizes the value-substitution message strategies and
	// the stuck-at memory value (default 1<<30).
	Lie int64
	// Seed roots the whole sweep; every cell and run derives
	// deterministically from it (default 1989).
	Seed int64
	// Timeout bounds absence detection per run (default 150ms).
	Timeout time.Duration
}

func (s CoverageSweep) withDefaults() CoverageSweep {
	if len(s.Dims) == 0 {
		s.Dims = []int{2, 3}
	}
	if len(s.Rates) == 0 {
		s.Rates = []float64{0.5, 1}
	}
	if s.Runs <= 0 {
		s.Runs = 8
	}
	if s.BlockLen <= 0 {
		s.BlockLen = 2
	}
	if s.Lie == 0 {
		s.Lie = 1 << 30
	}
	if s.Seed == 0 {
		s.Seed = 1989
	}
	if s.Timeout <= 0 {
		s.Timeout = 150 * time.Millisecond
	}
	return s
}

// CoverageCell is one matrix cell: a (algorithm, dim, fault, rate)
// coordinate and its verdict tallies over the cell's seeded runs.
type CoverageCell struct {
	// Algo is AlgoSFT or AlgoBlockFT.
	Algo string
	// Dim is the cube dimension.
	Dim int
	// Class is the adversary class.
	Class fault.Class
	// Label names the concrete strategy or mode within the class.
	Label string
	// Rate is the fault rate (1 for the all-or-nothing classes).
	Rate float64
	// Runs is the number of injections behind the tallies.
	Runs int
	// Detected, Correct and Silent split the runs by verdict; Silent
	// counts the undetected-wrong outcomes Theorem 3 forbids.
	Detected int
	Correct  int
	Silent   int
	// Detectors histograms what detected the fault: predicate name,
	// "absence", or "node-local", per the fault package's Result.
	Detectors map[string]int
}

// DetectFrac is the cell's measured detection fraction.
func (c CoverageCell) DetectFrac() float64 {
	if c.Runs == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Runs)
}

// coverageRow is one fault coordinate of the matrix, before the run
// axis is applied.
type coverageRow struct {
	class fault.Class
	label string
	rate  float64
	// mode/strategy payloads; exactly one family is meaningful.
	strategy fault.Strategy
	cmpMode  fault.CmpMode
	memMode  fault.MemMode
}

// coverageRows enumerates the matrix's fault axis in render order:
// message strategies, absence, then the rate-swept comparison and
// memory modes.
func coverageRows(rates []float64) []coverageRow {
	var rows []coverageRow
	for _, st := range fault.AllStrategies() {
		rows = append(rows, coverageRow{
			class: st.Class(), label: st.String(), rate: 1, strategy: st,
		})
	}
	for _, m := range fault.AllCmpModes() {
		for _, r := range rates {
			rows = append(rows, coverageRow{
				class: fault.ClassComparison, label: m.String(), rate: r, cmpMode: m,
			})
		}
	}
	for _, m := range fault.AllMemModes() {
		for _, r := range rates {
			rows = append(rows, coverageRow{
				class: fault.ClassMemory, label: m.String(), rate: r, memMode: m,
			})
		}
	}
	return rows
}

// MeasureCoverage runs the sweep and returns the matrix cells, in
// (algorithm, dim, row) order. Cells run concurrently on the shared
// worker pool; runs within a cell are sequential and deterministic in
// the sweep seed. Each run's outcome is recorded on the observer's
// per-class fault counters (nil-safe).
func MeasureCoverage(cfg CoverageSweep, o *obs.Observer) ([]CoverageCell, error) {
	cfg = cfg.withDefaults()
	for _, d := range cfg.Dims {
		if d < 1 {
			return nil, fmt.Errorf("experiments: coverage sweep dim %d < 1", d)
		}
	}
	for _, r := range cfg.Rates {
		if r <= 0 || r > 1 {
			return nil, fmt.Errorf("experiments: coverage sweep rate %v outside (0,1]", r)
		}
	}
	rows := coverageRows(cfg.Rates)
	type coord struct {
		algo string
		dim  int
		row  coverageRow
	}
	var coords []coord
	for _, algo := range []string{AlgoSFT, AlgoBlockFT} {
		for _, d := range cfg.Dims {
			for _, row := range rows {
				coords = append(coords, coord{algo: algo, dim: d, row: row})
			}
		}
	}
	cells := make([]CoverageCell, len(coords))
	err := forEach(len(coords), func(i int) error {
		c := coords[i]
		cell, err := measureCoverageCell(cfg, c.algo, c.dim, c.row, cfg.Seed+int64(i)*7919, o)
		if err != nil {
			return fmt.Errorf("experiments: coverage cell %s d%d %s rate %v: %w",
				c.algo, c.dim, c.row.label, c.row.rate, err)
		}
		cells[i] = cell
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cells, nil
}

func measureCoverageCell(cfg CoverageSweep, algo string, dim int, row coverageRow, cellSeed int64, o *obs.Observer) (CoverageCell, error) {
	n := 1 << uint(dim)
	m := 1 // S_FT: one key per node
	if algo == AlgoBlockFT {
		m = cfg.BlockLen
	}
	cell := CoverageCell{
		Algo: algo, Dim: dim, Class: row.class, Label: row.label,
		Rate: row.rate, Runs: cfg.Runs, Detectors: map[string]int{},
	}
	for run := 0; run < cfg.Runs; run++ {
		node := run % n
		seed := cellSeed ^ (int64(run)+1)*0x9E3779B9
		keys := Keys(n*m, seed)

		var c fault.Case
		switch row.class {
		case fault.ClassComparison:
			c.Cmp = &fault.CmpSpec{Node: node, Mode: row.cmpMode, Rate: row.rate, Seed: seed, ActivateStage: 1}
		case fault.ClassMemory:
			c.Mem = &fault.MemSpec{Node: node, Mode: row.memMode, Rate: row.rate, Seed: seed,
				ActivateStage: 1, StuckValue: cfg.Lie}
		default:
			c.Msg = &fault.Spec{Node: node, Strategy: row.strategy, ActivateStage: 1, LieValue: cfg.Lie}
		}
		res, err := fault.Inject(dim, keys, m, fault.Set{c}, cfg.Timeout)
		if err != nil {
			return CoverageCell{}, fmt.Errorf("run %d node %d: %w", run, node, err)
		}
		switch res.Verdict {
		case fault.Detected:
			cell.Detected++
			det := res.Detector
			if det == "" {
				det = "node-local"
			}
			cell.Detectors[det]++
			if ferr := validateForensic(res, row.class); ferr != nil {
				return CoverageCell{}, fmt.Errorf("run %d node %d: %w", run, node, ferr)
			}
		case fault.CorrectDespiteFault:
			cell.Correct++
		case fault.SilentWrong:
			cell.Silent++
		default:
			return CoverageCell{}, fmt.Errorf("run %d node %d: unclassified verdict %v", run, node, res.Verdict)
		}
		o.FaultOutcome(row.class.Obs(), res.Verdict == fault.Detected, res.Verdict == fault.SilentWrong)
	}
	return cell, nil
}

// validateForensic cross-checks a detected run's flight-recorder dump
// against its verdict: every host-level detection must come with a
// report whose accused node and predicate agree with the earliest host
// evidence, and — for the classes whose lies travel over messages
// (message and comparison faults) — whose causal chain spans at least
// the accuser-side evidence and the hop it arrived on.
func validateForensic(res fault.Result, class fault.Class) error {
	if res.Detector == "node-local" {
		// The node fail-stopped before its ERROR reached the host, so
		// no accusation dump was taken.
		return nil
	}
	rep := res.Forensic
	if rep == nil {
		return fmt.Errorf("detected (%s via %s) but no forensic report attached",
			res.Predicate, res.Detector)
	}
	if len(rep.Chain) == 0 || len(rep.Nodes) == 0 {
		return fmt.Errorf("forensic report is empty: %d chain hops, %d node logs",
			len(rep.Chain), len(rep.Nodes))
	}
	if res.Accused >= 0 && int(rep.Accused) != res.Accused {
		return fmt.Errorf("forensic report accuses node %d, verdict accuses node %d",
			rep.Accused, res.Accused)
	}
	if rep.Predicate != res.Predicate {
		return fmt.Errorf("forensic report predicate %q, verdict predicate %q",
			rep.Predicate, res.Predicate)
	}
	if (class == fault.ClassMessage || class == fault.ClassComparison) && len(rep.Chain) < 2 {
		return fmt.Errorf("%s-fault dump has a causal chain of %d hop(s), want >= 2",
			class, len(rep.Chain))
	}
	return nil
}

// SilentWrongCells returns the cells with at least one silent-wrong
// run — Theorem 3 escapes; an empty result is the theorem holding over
// the whole sweep.
func SilentWrongCells(cells []CoverageCell) []CoverageCell {
	var out []CoverageCell
	for _, c := range cells {
		if c.Silent > 0 {
			out = append(out, c)
		}
	}
	return out
}

// ClassCoverage is one adversary class's tallies summed over its
// matrix cells.
type ClassCoverage struct {
	Class    fault.Class
	Runs     int
	Detected int
	Correct  int
	Silent   int
}

// DetectFrac is the class's overall measured detection fraction.
func (c ClassCoverage) DetectFrac() float64 {
	if c.Runs == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Runs)
}

// SummarizeCoverage folds cells into per-class totals, in
// fault.AllClasses order (classes absent from the cells are omitted).
func SummarizeCoverage(cells []CoverageCell) []ClassCoverage {
	byClass := map[fault.Class]*ClassCoverage{}
	for _, c := range cells {
		cc := byClass[c.Class]
		if cc == nil {
			cc = &ClassCoverage{Class: c.Class}
			byClass[c.Class] = cc
		}
		cc.Runs += c.Runs
		cc.Detected += c.Detected
		cc.Correct += c.Correct
		cc.Silent += c.Silent
	}
	var out []ClassCoverage
	for _, cl := range fault.AllClasses() {
		if cc, ok := byClass[cl]; ok {
			out = append(out, *cc)
		}
	}
	return out
}

// CalibrateCoverage converts a measured matrix into the cost model's
// per-class detection profile: each class's DetectFrac is its overall
// detection fraction and its Share is its run share of the sweep (the
// uniform-mix assumption; callers with a better arrival mix can
// reweight the shares before use).
func CalibrateCoverage(cells []CoverageCell) (costmodel.CoverageCalibration, error) {
	sums := SummarizeCoverage(cells)
	if len(sums) == 0 {
		return costmodel.CoverageCalibration{}, errors.New("experiments: no coverage cells to calibrate")
	}
	var total int
	for _, cc := range sums {
		total += cc.Runs
	}
	var cal costmodel.CoverageCalibration
	for _, cc := range sums {
		cal.Classes = append(cal.Classes, costmodel.ClassDetection{
			Class:      cc.Class.String(),
			Share:      float64(cc.Runs) / float64(total),
			DetectFrac: cc.DetectFrac(),
		})
	}
	if err := cal.Validate(); err != nil {
		return costmodel.CoverageCalibration{}, err
	}
	return cal, nil
}

// RenderCoverage renders the matrix as a fixed-width text table, one
// line per cell plus per-class totals — the E6 table extended across
// adversary classes.
func RenderCoverage(cells []CoverageCell) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Detection-coverage matrix — fault class × rate × dim × algorithm\n")
	fmt.Fprintf(&b, "%-8s %-4s %-11s %-15s %5s  %9s %8s %13s  %s\n",
		"algo", "dim", "class", "fault", "rate", "detected", "correct", "SILENT-WRONG", "detectors")
	for _, c := range cells {
		fmt.Fprintf(&b, "%-8s %-4d %-11s %-15s %5.2f  %5d/%-3d %8d %13d  %s\n",
			c.Algo, c.Dim, c.Class, c.Label, c.Rate, c.Detected, c.Runs, c.Correct, c.Silent,
			renderDetectors(c.Detectors))
	}
	b.WriteString("\nPer-class totals\n")
	fmt.Fprintf(&b, "%-11s %9s %8s %13s %12s\n",
		"class", "detected", "correct", "SILENT-WRONG", "detect-frac")
	for _, cc := range SummarizeCoverage(cells) {
		fmt.Fprintf(&b, "%-11s %5d/%-3d %8d %13d %12.3f\n",
			cc.Class, cc.Detected, cc.Runs, cc.Correct, cc.Silent, cc.DetectFrac())
	}
	return b.String()
}

// renderDetectors formats a detector histogram deterministically
// (keys sorted).
func renderDetectors(d map[string]int) string {
	if len(d) == 0 {
		return "-"
	}
	keys := make([]string, 0, len(d))
	for k := range d {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s:%d", k, d[k]))
	}
	return strings.Join(parts, " ")
}
