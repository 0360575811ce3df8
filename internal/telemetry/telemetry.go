// Package telemetry is the simulator's observability layer: a metrics
// registry the simulation substrates (machine, procsim, cohsim,
// netsim) publish into and a Chrome trace-event exporter.
//
// The registry is built for a single-threaded simulation hot path:
// registration (which allocates) happens once at machine construction,
// and every per-event operation afterwards — Counter.Add,
// Histogram.Add, HistogramVec.Observe — is allocation-free. Gauges are
// pull-based (a closure evaluated only when the registry is dumped or
// sampled), so instrumenting an existing counter costs nothing per
// simulated cycle. The registry is not goroutine-safe; each machine
// owns its own, matching the one-goroutine-per-simulation execution
// model of the experiment engine.
package telemetry

import (
	"fmt"
	"io"
	"sort"

	"locality/internal/stats"
)

// Counter is a push-style monotonic counter owned by the registry.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n (n may be any non-negative increment).
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// HistogramVec is a fixed family of histograms indexed by a small
// integer key — hop distance in the latency-vs-distance measurements.
// Keys at or beyond the declared range clamp to the last histogram, so
// Observe never allocates and never panics on an unexpected key.
type HistogramVec struct {
	hs []*stats.Histogram
}

// Observe records val under key.
func (v *HistogramVec) Observe(key int, val int64) {
	if key < 0 {
		key = 0
	}
	if key >= len(v.hs) {
		key = len(v.hs) - 1
	}
	v.hs[key].Add(val)
}

// Keys returns the declared key range.
func (v *HistogramVec) Keys() int { return len(v.hs) }

// At returns the histogram for one key (clamped like Observe).
func (v *HistogramVec) At(key int) *stats.Histogram {
	if key < 0 {
		key = 0
	}
	if key >= len(v.hs) {
		key = len(v.hs) - 1
	}
	return v.hs[key]
}

// kind tags a registry entry for dumping.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
	kindVec
)

type entry struct {
	name string
	kind kind
	c    *Counter
	g    func() float64
	h    *stats.Histogram
	v    *HistogramVec
}

// Registry holds named metrics. The zero value is not usable; build
// with New. A nil *Registry is a valid "telemetry off" value: every
// registration method on it returns a usable-but-orphaned metric, so
// call sites need no nil checks on the hot path — but callers that can
// avoid the instrumentation entirely when the registry is nil should,
// since even orphaned metrics cost their update.
type Registry struct {
	entries []entry
	byName  map[string]struct{}
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{byName: make(map[string]struct{})}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

func (r *Registry) add(e entry) {
	if _, dup := r.byName[e.name]; dup {
		panic(fmt.Sprintf("telemetry: duplicate metric name %q", e.name))
	}
	r.byName[e.name] = struct{}{}
	r.entries = append(r.entries, e)
}

// Counter registers and returns a named counter. Safe on a nil
// registry (returns an unregistered counter).
func (r *Registry) Counter(name string) *Counter {
	c := &Counter{}
	if r == nil {
		return c
	}
	r.add(entry{name: name, kind: kindCounter, c: c})
	return c
}

// GaugeFunc registers a pull-based gauge: fn is evaluated at dump and
// sample time only. Safe (a no-op) on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil {
		return
	}
	r.add(entry{name: name, kind: kindGauge, g: fn})
}

// Histogram registers a fixed-bucket histogram: nbuckets buckets of
// the given width plus an overflow bucket. Safe on a nil registry.
func (r *Registry) Histogram(name string, nbuckets int, width int64) *stats.Histogram {
	h := stats.NewHistogram(nbuckets, width)
	if r == nil {
		return h
	}
	r.add(entry{name: name, kind: kindHistogram, h: h})
	return h
}

// HistogramVec registers a family of keys histograms (each nbuckets ×
// width) indexed by a small integer key. Safe on a nil registry.
func (r *Registry) HistogramVec(name string, keys, nbuckets int, width int64) *HistogramVec {
	if keys < 1 {
		keys = 1
	}
	v := &HistogramVec{hs: make([]*stats.Histogram, keys)}
	for i := range v.hs {
		v.hs[i] = stats.NewHistogram(nbuckets, width)
	}
	if r == nil {
		return v
	}
	r.add(entry{name: name, kind: kindVec, v: v})
	return v
}

// Value is one scalar sample of the registry: counters and gauges
// directly, histograms as their observation count and mean.
type Value struct {
	Name  string
	Value float64
}

// MetricKind distinguishes registry entries in an Export.
type MetricKind uint8

const (
	KindCounter MetricKind = iota
	KindGauge
	KindHistogram
	KindVec
)

// String names the kind for exposition writers.
func (k MetricKind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	case KindVec:
		return "histogram_vec"
	}
	return "unknown"
}

// HistStat is a point-in-time summary of one histogram: observation
// count, sum-derived mean, bucket-granularity percentiles, and the
// overflow count. Key is the HistogramVec key that produced it, or -1
// for a plain histogram.
type HistStat struct {
	Key           int
	Count         int64
	Mean          float64
	P50, P90, P99 int64
	Overflow      int64
}

// Metric is one registry entry's exported state. Counters and gauges
// carry Value; histograms carry one HistStat (Key -1); vector
// histograms carry one HistStat per populated key, ascending.
type Metric struct {
	Name  string
	Kind  MetricKind
	Value float64
	Hists []HistStat
}

func histStat(key int, h *stats.Histogram) HistStat {
	return HistStat{
		Key: key, Count: h.Count(), Mean: h.Mean(),
		P50: h.Percentile(50), P90: h.Percentile(90), P99: h.Percentile(99),
		Overflow: h.Overflow(),
	}
}

// Export evaluates every entry into a typed, immutable sample sorted
// by name. It is the single source for external exposition (the obs
// layer's /metrics and /statusz) and for Snapshot's flat view. Like
// every registry read it must run on the goroutine that owns the
// registry — the simulation loop publishes exports at its own chunk
// boundaries precisely so observers never touch live state. Nil-safe.
func (r *Registry) Export() []Metric {
	if r == nil {
		return nil
	}
	out := make([]Metric, 0, len(r.entries))
	for _, e := range r.entries {
		switch e.kind {
		case kindCounter:
			out = append(out, Metric{Name: e.name, Kind: KindCounter, Value: float64(e.c.Value())})
		case kindGauge:
			out = append(out, Metric{Name: e.name, Kind: KindGauge, Value: e.g()})
		case kindHistogram:
			out = append(out, Metric{Name: e.name, Kind: KindHistogram, Hists: []HistStat{histStat(-1, e.h)}})
		case kindVec:
			m := Metric{Name: e.name, Kind: KindVec}
			for k := 0; k < e.v.Keys(); k++ {
				if h := e.v.At(k); h.Count() > 0 {
					m.Hists = append(m.Hists, histStat(k, h))
				}
			}
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot evaluates every entry into flat named scalars, sorted by
// name. Counters and gauges report directly. Histograms report
// <name>/count, <name>/mean, <name>/p50, <name>/p99, and
// <name>/overflow, so the distribution's shape survives flattening.
// Vector histograms report the same five scalars aggregated across
// keys (count, mean, and overflow exactly; p50/p99 as the max across
// keys — an upper bound, consistent with Percentile's own
// bucket-granularity upper bound) plus a full <name>[k]/... group per
// populated key — the per-distance latency signal the /metrics
// endpoint consumes. Nil-safe.
func (r *Registry) Snapshot() []Value {
	if r == nil {
		return nil
	}
	var out []Value
	histVals := func(name string, h HistStat) []Value {
		return []Value{
			{name + "/count", float64(h.Count)},
			{name + "/mean", h.Mean},
			{name + "/p50", float64(h.P50)},
			{name + "/p99", float64(h.P99)},
			{name + "/overflow", float64(h.Overflow)},
		}
	}
	for _, m := range r.Export() {
		switch m.Kind {
		case KindCounter, KindGauge:
			out = append(out, Value{m.Name, m.Value})
		case KindHistogram:
			out = append(out, histVals(m.Name, m.Hists[0])...)
		case KindVec:
			var agg HistStat
			var sum float64
			for _, h := range m.Hists {
				agg.Count += h.Count
				sum += h.Mean * float64(h.Count)
				agg.Overflow += h.Overflow
				if h.P50 > agg.P50 {
					agg.P50 = h.P50
				}
				if h.P99 > agg.P99 {
					agg.P99 = h.P99
				}
				out = append(out, histVals(fmt.Sprintf("%s[%d]", m.Name, h.Key), h)...)
			}
			if agg.Count > 0 {
				agg.Mean = sum / float64(agg.Count)
			}
			out = append(out, histVals(m.Name, agg)...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Dump writes a sorted human-readable rendering of every metric.
// Histogram lines include count, mean, and coarse percentiles; vector
// histograms print one line per populated key. Nil-safe.
func (r *Registry) Dump(w io.Writer) error {
	if r == nil {
		return nil
	}
	sorted := make([]entry, len(r.entries))
	copy(sorted, r.entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].name < sorted[j].name })
	for _, e := range sorted {
		var err error
		switch e.kind {
		case kindCounter:
			_, err = fmt.Fprintf(w, "%-40s %d\n", e.name, e.c.Value())
		case kindGauge:
			_, err = fmt.Fprintf(w, "%-40s %g\n", e.name, e.g())
		case kindHistogram:
			err = dumpHistogram(w, e.name, e.h)
		case kindVec:
			for k := 0; k < e.v.Keys(); k++ {
				h := e.v.At(k)
				if h.Count() == 0 {
					continue
				}
				if err = dumpHistogram(w, fmt.Sprintf("%s[%d]", e.name, k), h); err != nil {
					break
				}
			}
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func dumpHistogram(w io.Writer, name string, h *stats.Histogram) error {
	_, err := fmt.Fprintf(w, "%-40s count=%d mean=%.2f p50=%d p90=%d p99=%d overflow=%d\n",
		name, h.Count(), h.Mean(), h.Percentile(50), h.Percentile(90), h.Percentile(99), h.Overflow())
	return err
}
