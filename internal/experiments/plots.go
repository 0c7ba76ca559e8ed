package experiments

import (
	"fmt"

	"repro/internal/plot"
)

// Plot renders Figure 6 as an ASCII chart: the three observed curves
// over the measured cube sizes.
func (f Figure6Result) Plot() (string, error) {
	return plotRows("Figure 6 — sorting time, small cubes",
		[3]string{"S_NR observed", "S_FT observed", "Host sort observed"}, f.Rows)
}

// Plot renders Figure 8's measured block-sorting curves.
func (f Figure8Result) Plot() (string, error) {
	m := 0
	if len(f.Rows) > 0 {
		m = f.Rows[0].M
	}
	return plotRows(fmt.Sprintf("Figure 8 — block sort/merge vs host sort (m=%d)", m),
		[3]string{"block S_NR", "block S_FT", "host sort"}, f.Rows)
}

// plotRows charts the S_NR, S_FT and host-sort makespans of rows over
// their cube sizes, the series named by names in that order.
func plotRows(title string, names [3]string, rows []Row) (string, error) {
	ticks := make([]string, len(rows))
	snr := make([]float64, len(rows))
	sft := make([]float64, len(rows))
	host := make([]float64, len(rows))
	for i, r := range rows {
		ticks[i] = fmt.Sprintf("N=%d", r.N)
		snr[i] = float64(r.SNR.Makespan)
		sft[i] = float64(r.SFT.Makespan)
		host[i] = float64(r.Host.Makespan)
	}
	return plot.Render(plot.Config{
		Title:  title,
		XLabel: "cube size",
		YLabel: "virtual ticks",
		XTicks: ticks,
	}, []plot.Series{
		{Name: names[0], Rune: 'n', Y: snr},
		{Name: names[1], Rune: 'F', Y: sft},
		{Name: names[2], Rune: 'h', Y: host},
	})
}

// Plot renders the projection as a log-scale ASCII chart of the
// measured-model curves (the paper's Figure 7 uses a log time axis for
// the same reason: the curves span orders of magnitude).
func (f Figure7Result) Plot() (string, error) {
	if len(f.Models) < 2 {
		return "", fmt.Errorf("experiments: projection has %d models", len(f.Models))
	}
	ticks := make([]string, len(f.Rows))
	a := make([]float64, len(f.Rows))
	b := make([]float64, len(f.Rows))
	for i, r := range f.Rows {
		ticks[i] = fmt.Sprintf("%d", r.N)
		a[i] = r.Totals[0]
		b[i] = r.Totals[1]
	}
	title := f.Title
	if title == "" {
		title = "Figure 7 — projected sorting times, large systems"
	}
	return plot.Render(plot.Config{
		Title:  title,
		XLabel: "nodes",
		YLabel: "virtual ticks",
		XTicks: ticks,
		LogY:   true,
	}, []plot.Series{
		{Name: f.Models[0].CostName(), Rune: 'F', Y: a},
		{Name: f.Models[1].CostName(), Rune: 'h', Y: b},
	})
}
