// Package metrics is the observability layer of the serving stack: a small
// dependency-free registry of counters, gauges, and latency histograms with
// a Prometheus-compatible text exposition.
//
// Metric names carry their labels inline in the standard sample syntax,
// e.g. `requests_total{endpoint="predict",code="200"}`; the registry treats
// the full string as the sample identity and groups samples into families
// (the name before '{') when rendering `# TYPE` headers. That keeps the
// API one line per instrument — Counter/Gauge/Histogram create on first
// use — which is all a single-process model server needs, while staying
// scrapable by standard collectors.
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Raise lifts the count to n when n is larger: a counter mirroring a count
// kept elsewhere, read at scrape time. Concurrent scrapes never
// double-count, and the counter never goes backwards.
func (c *Counter) Raise(n uint64) {
	for {
		v := c.v.Load()
		if n <= v || c.v.CompareAndSwap(v, n) {
			return
		}
	}
}

// Gauge is a value that can go up and down (or be set outright).
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets is the default latency histogram layout, in seconds. It spans
// sub-millisecond cache hits through multi-minute profiling sweeps.
var DefBuckets = []float64{.001, .005, .01, .05, .1, .5, 1, 5, 10, 30, 60, 120}

// Histogram accumulates observations into cumulative buckets.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // upper bounds, ascending; +Inf implicit
	counts []uint64  // len(bounds)+1; last is the +Inf bucket
	sum    float64
	count  uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v (le semantics)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Snapshot returns the cumulative bucket counts (per bound, then +Inf),
// the sum, and the total count.
func (h *Histogram) Snapshot() (bounds []float64, cumulative []uint64, sum float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	bounds = append([]float64(nil), h.bounds...)
	cumulative = make([]uint64, len(h.counts))
	var acc uint64
	for i, c := range h.counts {
		acc += c
		cumulative[i] = acc
	}
	return bounds, cumulative, h.sum, h.count
}

// Registry holds named instruments and renders them as text.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	collectors []func(*Registry)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		histograms: map[string]*Histogram{},
	}
}

// Counter returns the counter with the given full sample name, creating it
// on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge with the given full sample name, creating it on
// first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram with the given full sample name, creating
// it with the given bucket bounds on first use (nil selects DefBuckets).
// Later calls ignore the bounds argument.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if bounds == nil {
			bounds = DefBuckets
		}
		h = &Histogram{bounds: append([]float64(nil), bounds...), counts: make([]uint64, len(bounds)+1)}
		r.histograms[name] = h
	}
	return h
}

// OnCollect registers a hook run at the start of every WriteText, letting
// owners refresh gauges from external state (e.g. cache occupancy) right
// before a scrape.
func (r *Registry) OnCollect(fn func(*Registry)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// CounterValue returns the value of a counter, or 0 if it does not exist.
// Intended for tests and admission checks, not hot paths.
func (r *Registry) CounterValue(name string) uint64 {
	r.mu.Lock()
	c, ok := r.counters[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return c.Value()
}

// GaugeValue returns the value of a gauge, or 0 if it does not exist.
func (r *Registry) GaugeValue(name string) int64 {
	r.mu.Lock()
	g, ok := r.gauges[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	return g.Value()
}

// family splits a full sample name into its family (metric name without
// labels) and the label list without braces ("" if unlabeled).
func family(name string) (fam, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i], strings.TrimSuffix(name[i+1:], "}")
	}
	return name, ""
}

// WriteText renders every instrument in the Prometheus text format, sorted
// by sample name so output is deterministic.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	hooks := make([]func(*Registry), len(r.collectors))
	copy(hooks, r.collectors)
	r.mu.Unlock()
	for _, fn := range hooks {
		fn(r)
	}

	r.mu.Lock()
	type sample struct {
		name string
		kind string
		text func() string
	}
	var samples []sample
	for name, c := range r.counters {
		c := c
		samples = append(samples, sample{name, "counter", func() string {
			return fmt.Sprintf("%s %d\n", name, c.Value())
		}})
	}
	for name, g := range r.gauges {
		g := g
		samples = append(samples, sample{name, "gauge", func() string {
			return fmt.Sprintf("%s %d\n", name, g.Value())
		}})
	}
	for name, h := range r.histograms {
		name, h := name, h
		samples = append(samples, sample{name, "histogram", func() string {
			fam, labels := family(name)
			bounds, cum, sum, count := h.Snapshot()
			var b strings.Builder
			for i, ub := range bounds {
				fmt.Fprintf(&b, "%s_bucket{%sle=%q} %d\n", fam, joinLabels(labels), formatFloat(ub), cum[i])
			}
			fmt.Fprintf(&b, "%s_bucket{%sle=\"+Inf\"} %d\n", fam, joinLabels(labels), cum[len(cum)-1])
			if labels == "" {
				fmt.Fprintf(&b, "%s_sum %v\n%s_count %d\n", fam, sum, fam, count)
			} else {
				fmt.Fprintf(&b, "%s_sum{%s} %v\n%s_count{%s} %d\n", fam, labels, sum, fam, labels, count)
			}
			return b.String()
		}})
	}
	r.mu.Unlock()

	sort.Slice(samples, func(i, j int) bool { return samples[i].name < samples[j].name })
	seenFam := map[string]bool{}
	for _, s := range samples {
		fam, _ := family(s.name)
		if !seenFam[fam] {
			seenFam[fam] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", fam, s.kind); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, s.text()); err != nil {
			return err
		}
	}
	return nil
}

// joinLabels renders a label prefix for bucket lines: "" stays empty,
// otherwise the labels gain a trailing comma.
func joinLabels(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

// formatFloat renders a bucket bound the way Prometheus does (shortest
// representation, no trailing zeros).
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%v", v)
}
