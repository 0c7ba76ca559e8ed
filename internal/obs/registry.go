package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable but unregistered; registry-created counters are exported.
// All methods are safe for concurrent use and allocation-free.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n (negative n is ignored: counters
// only go up).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set replaces the gauge's value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add moves the gauge by n (either sign).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a fixed-bucket cumulative histogram over int64
// observations. Bucket bounds are set at registration; Observe is a
// linear scan over a handful of bounds plus two atomic adds, so
// recording allocates nothing.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// DefaultVTickBuckets are the bounds used for virtual-tick duration
// histograms: roughly geometric, spanning a single cheap exchange
// (thousands of ticks) to a large block stage (hundreds of millions).
func DefaultVTickBuckets() []int64 {
	return []int64{
		1_000, 10_000, 30_000, 100_000, 300_000,
		1_000_000, 3_000_000, 10_000_000, 30_000_000,
		100_000_000, 300_000_000, 1_000_000_000,
	}
}

// Label is one name=value pair attached to a metric series.
type Label struct{ Key, Value string }

// metricType discriminates registered families.
type metricType uint8

const (
	typeCounter metricType = iota + 1
	typeGauge
	typeHistogram
)

func (t metricType) String() string {
	switch t {
	case typeCounter:
		return "counter"
	case typeGauge:
		return "gauge"
	case typeHistogram:
		return "histogram"
	}
	return "untyped"
}

// series is one label set of a family.
type series struct {
	labels []Label
	key    string // rendered label string, the dedup key
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is all series sharing one metric name.
type family struct {
	name   string
	help   string
	typ    metricType
	series []*series
}

// Registry holds named metrics for export. Registration takes a
// mutex and may allocate; recording on the returned instruments never
// does. The zero value is not usable — construct with NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// renderLabels produces the canonical `{k="v",...}` form ("" for no
// labels), used both as the series dedup key and in the Prometheus
// exposition.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the series for (name, labels), enforcing
// type and help consistency across the family.
func (r *Registry) lookup(name, help string, typ metricType, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ}
		r.families[name] = f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q registered as %s, re-registered as %s", name, f.typ, typ))
	}
	key := renderLabels(labels)
	for _, s := range f.series {
		if s.key == key {
			return s
		}
	}
	s := &series{labels: append([]Label(nil), labels...), key: key}
	f.series = append(f.series, s)
	return s
}

// Counter returns the counter named name with the given labels,
// creating it on first use. Registering the same (name, labels) twice
// returns the same counter; registering the name with a different
// metric type panics.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	s := r.lookup(name, help, typeCounter, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.c == nil {
		s.c = &Counter{}
	}
	return s.c
}

// Gauge returns the gauge named name with the given labels.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	s := r.lookup(name, help, typeGauge, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.g == nil {
		s.g = &Gauge{}
	}
	return s.g
}

// Histogram returns the histogram named name with the given bucket
// bounds (ascending). The bounds of the first registration win.
func (r *Registry) Histogram(name, help string, bounds []int64, labels ...Label) *Histogram {
	s := r.lookup(name, help, typeHistogram, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if s.h == nil {
		s.h = &Histogram{
			bounds: append([]int64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	}
	return s.h
}

// sortedFamilies snapshots the families sorted by name, each with its
// series sorted by label key — the deterministic export order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	for _, f := range out {
		sort.Slice(f.series, func(i, j int) bool { return f.series[i].key < f.series[j].key })
	}
	return out
}
