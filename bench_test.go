// Benchmarks regenerating the paper's evaluation artifacts. Each
// Benchmark function corresponds to one table or figure of Section 4/5
// (see EXPERIMENTS.md for the index):
//
//	BenchmarkFig6_*      — Figure 6: sorting time, small cubes
//	BenchmarkTable1      — Section 5 component-time table (model fit)
//	BenchmarkFig7        — Figure 7: large-system projections
//	BenchmarkFig8_*      — Figure 8: block sort/merge vs host sort
//	BenchmarkE6Coverage  — Section 4: single-fault detection sweep
//
// The wall-clock numbers benchmark the *simulator*; the paper-shaped
// results (virtual ticks) are reported via b.ReportMetric so a bench
// run reproduces the figures' series directly.
package repro_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/simnet"
)

const benchSeed = 1989

// reportMeasurement attaches the paper-facing series to the bench line.
func reportMeasurement(b *testing.B, m experiments.Measurement) {
	b.ReportMetric(float64(m.Makespan), "vticks")
	b.ReportMetric(float64(m.Comm), "vcomm")
	b.ReportMetric(float64(m.Comp), "vcomp")
	b.ReportMetric(float64(m.Msgs), "msgs")
	b.ReportMetric(float64(m.Bytes), "wirebytes")
}

func benchMeasure(b *testing.B, f func() (experiments.Measurement, error)) {
	b.Helper()
	var last experiments.Measurement
	for i := 0; i < b.N; i++ {
		m, err := f()
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	reportMeasurement(b, last)
}

// BenchmarkFig6_SNR regenerates the S_NR series of Figure 6.
func BenchmarkFig6_SNR(b *testing.B) {
	for _, dim := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("N=%d", 1<<uint(dim)), func(b *testing.B) {
			benchMeasure(b, func() (experiments.Measurement, error) {
				return experiments.MeasureSNR(dim, benchSeed)
			})
		})
	}
}

// BenchmarkFig6_SFT regenerates the S_FT series of Figure 6.
func BenchmarkFig6_SFT(b *testing.B) {
	for _, dim := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("N=%d", 1<<uint(dim)), func(b *testing.B) {
			benchMeasure(b, func() (experiments.Measurement, error) {
				return experiments.MeasureSFT(dim, benchSeed)
			})
		})
	}
}

// BenchmarkFig6_HostSort regenerates the sequential series of Figure 6.
func BenchmarkFig6_HostSort(b *testing.B) {
	for _, dim := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("N=%d", 1<<uint(dim)), func(b *testing.B) {
			benchMeasure(b, func() (experiments.Measurement, error) {
				return experiments.MeasureHostSort(dim, benchSeed)
			})
		})
	}
}

// BenchmarkFig6_HostVerify measures the paper's other rejected
// baseline: distributed sort plus Theorem 1 verification at the host.
func BenchmarkFig6_HostVerify(b *testing.B) {
	for _, dim := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("N=%d", 1<<uint(dim)), func(b *testing.B) {
			benchMeasure(b, func() (experiments.Measurement, error) {
				return experiments.MeasureHostVerify(dim, benchSeed)
			})
		})
	}
}

// BenchmarkTable1 regenerates the Section 5 component-time table: a
// sweep plus least-squares fit of the paper's formula shapes. The
// fitted coefficients are reported as metrics.
func BenchmarkTable1(b *testing.B) {
	var fit experiments.Table1Result
	for i := 0; i < b.N; i++ {
		var err error
		fit, err = experiments.Table1([]int{2, 3, 4, 5, 6}, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(fit.SFT.Comm[0].Coef, "sft-comm-lg2N")
	b.ReportMetric(fit.SFT.Comp[0].Coef, "sft-comp-N")
	b.ReportMetric(fit.Sequential.Comm[0].Coef, "seq-comm-N")
	b.ReportMetric(fit.Sequential.Comp[0].Coef, "seq-comp-NlgN")
}

// BenchmarkFig7 regenerates the Figure 7 projection: fit on small
// cubes, extrapolate to large ones, locate the crossover.
func BenchmarkFig7(b *testing.B) {
	var crossover int
	for i := 0; i < b.N; i++ {
		fit, err := experiments.Table1([]int{2, 3, 4, 5, 6}, benchSeed)
		if err != nil {
			b.Fatal(err)
		}
		res, err := experiments.Figure7(fit, 2, 16)
		if err != nil {
			b.Fatal(err)
		}
		crossover = res.MeasuredCrossover
	}
	b.ReportMetric(float64(crossover), "crossoverN")
	paper, err := costmodel.Crossover(costmodel.PaperSFT(), costmodel.PaperSequential(), 2, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(paper), "paper-crossoverN")
}

// BenchmarkFig8_BlockFT regenerates the fault-tolerant block-sort
// series of Figure 8 (m = 64 keys per node).
func BenchmarkFig8_BlockFT(b *testing.B) {
	for _, dim := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("N=%d/m=64", 1<<uint(dim)), func(b *testing.B) {
			benchMeasure(b, func() (experiments.Measurement, error) {
				return experiments.MeasureBlockFT(dim, 64, benchSeed)
			})
		})
	}
}

// BenchmarkFig8_BlockNR regenerates the unreliable block-sort series.
func BenchmarkFig8_BlockNR(b *testing.B) {
	for _, dim := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("N=%d/m=64", 1<<uint(dim)), func(b *testing.B) {
			benchMeasure(b, func() (experiments.Measurement, error) {
				return experiments.MeasureBlockNR(dim, 64, benchSeed)
			})
		})
	}
}

// BenchmarkFig8_HostBlocks regenerates the host series of Figure 8.
func BenchmarkFig8_HostBlocks(b *testing.B) {
	for _, dim := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("N=%d/m=64", 1<<uint(dim)), func(b *testing.B) {
			benchMeasure(b, func() (experiments.Measurement, error) {
				return experiments.MeasureHostSortBlocks(dim, 64, benchSeed)
			})
		})
	}
}

// BenchmarkAblationPiggyback measures the S_FT main loop with checks
// piggybacked on the sort's own messages (the paper's design)...
func BenchmarkAblationPiggyback(b *testing.B) {
	benchAblation(b, false)
}

// BenchmarkAblationSeparateMessages ...versus shipping every view in
// its own message, which doubles the main-loop message count. The
// vticks gap is the cost the piggybacking design avoids.
func BenchmarkAblationSeparateMessages(b *testing.B) {
	benchAblation(b, true)
}

func benchAblation(b *testing.B, separate bool) {
	const dim = 4
	n := 1 << uint(dim)
	keys := experiments.Keys(n, benchSeed)
	var last *core.Outcome
	for i := 0; i < b.N; i++ {
		nw, err := simnet.New(simnet.Config{Dim: dim, RecvTimeout: 10 * time.Second})
		if err != nil {
			b.Fatal(err)
		}
		opts := make([]core.Options, n)
		for id := range opts {
			opts[id].SeparateCheckMessages = separate
		}
		oc, err := core.RunWithOptions(nw, keys, opts)
		if err != nil {
			b.Fatal(err)
		}
		if oc.Detected() {
			b.Fatal("spurious detection")
		}
		last = oc
	}
	b.ReportMetric(float64(last.Result.Makespan()), "vticks")
	b.ReportMetric(float64(last.Result.Metrics.TotalMsgs()), "msgs")
	b.ReportMetric(float64(last.Result.Metrics.TotalBytes()), "wirebytes")
}

// BenchmarkE6Coverage runs the Section 4 error-coverage sweep (every
// strategy at every node of an 8-node cube) and reports the detection
// counts. Zero silent-wrong runs is the Theorem 3 reproduction.
func BenchmarkE6Coverage(b *testing.B) {
	keys := experiments.Keys(8, benchSeed)
	var sum fault.Summary
	for i := 0; i < b.N; i++ {
		results, err := fault.Coverage(3, keys, 1, fault.AllStrategies(), 999, 60*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		sum = fault.Summarize(results)
		if sum.SilentWrong != 0 {
			b.Fatalf("fail-stop guarantee violated: %+v", sum)
		}
	}
	b.ReportMetric(float64(sum.Detected), "detected")
	b.ReportMetric(float64(sum.CorrectDespiteFault), "harmless")
	b.ReportMetric(float64(sum.SilentWrong), "silent-wrong")
}
