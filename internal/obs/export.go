package obs

import (
	"fmt"
	"io"
	"strings"
)

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): # HELP and # TYPE lines per
// family, one sample line per series, histograms expanded into
// cumulative _bucket{le=...} samples plus _sum and _count. Families
// are sorted by name and series by label key, so output is
// deterministic given the same counter values.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.series {
			if err := writeSeries(w, f, s); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, s *series) error {
	switch f.typ {
	case typeCounter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.key, s.c.Value())
		return err
	case typeGauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.key, s.g.Value())
		return err
	case typeHistogram:
		return writeHistogram(w, f.name, s)
	}
	return nil
}

// writeHistogram emits the cumulative bucket expansion. The le label
// is appended to the series' own labels.
func writeHistogram(w io.Writer, name string, s *series) error {
	h := s.h
	cum := int64(0)
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
			name, bucketKey(s.key, fmt.Sprintf("%d", bound)), cum); err != nil {
			return err
		}
	}
	cum += h.counts[len(h.bounds)].Load()
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, bucketKey(s.key, "+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %d\n", name, s.key, h.Sum()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, s.key, h.Count())
	return err
}

// bucketKey merges an le="..." label into an existing rendered label
// set.
func bucketKey(key, le string) string {
	if key == "" {
		return fmt.Sprintf("{le=%q}", le)
	}
	return fmt.Sprintf("%s,le=%q}", strings.TrimSuffix(key, "}"), le)
}
