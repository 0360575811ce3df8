package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"locality/internal/stats"
	"locality/internal/telemetry"
)

// requestClasses are the /v1 endpoint families the server accounts
// separately, in ledger and exposition order.
var requestClasses = []string{"solve", "gain", "sensitivity", "sweep"}

// classMetrics accounts one request class. telemetry.Registry is
// single-owner by design (simulation loops), so the serving layer
// keeps its own concurrency-safe counters and renders them into
// telemetry.Metric values at scrape time.
type classMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64

	mu  sync.Mutex
	lat *stats.Histogram // microseconds
}

// latBuckets is every class's histogram length; percentiles past the
// last bucket saturate at its edge rather than lie.
const latBuckets = 2048

// latWidthUS is each class's bucket width in microseconds. Point
// queries take microseconds in the handler, so 5 µs buckets resolve
// them up to ~10 ms; sweeps run simulations for seconds, so 100 ms
// buckets reach ~200 s. A percentile reads its bucket's upper edge.
var latWidthUS = map[string]int64{
	"solve":       5,
	"gain":        5,
	"sensitivity": 5,
	"sweep":       100_000,
}

func newClassMetrics(class string) *classMetrics {
	return &classMetrics{lat: stats.NewHistogram(latBuckets, latWidthUS[class])}
}

// observe records one request's latency and outcome.
func (c *classMetrics) observe(d time.Duration, failed bool) {
	c.requests.Add(1)
	if failed {
		c.errors.Add(1)
	}
	c.mu.Lock()
	c.lat.Add(d.Microseconds())
	c.mu.Unlock()
}

// percentiles returns (p50, p99) in microseconds.
func (c *classMetrics) percentiles() (float64, float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.lat.Count() == 0 {
		return 0, 0
	}
	return float64(c.lat.Percentile(50)), float64(c.lat.Percentile(99))
}

func (c *classMetrics) histStat() telemetry.HistStat {
	c.mu.Lock()
	defer c.mu.Unlock()
	return telemetry.HistStat{
		Key: -1, Count: c.lat.Count(), Mean: c.lat.Mean(),
		P50: c.lat.Percentile(50), P90: c.lat.Percentile(90), P99: c.lat.Percentile(99),
		Overflow: c.lat.Overflow(),
	}
}

// renderMetrics assembles the server's full metric export — request
// classes, solve cache, batcher, sweeps — as a sorted []telemetry.Metric for the Prometheus exposition. The
// bridge publishes this snapshot on every /metrics scrape.
func (s *Server) renderMetrics() []telemetry.Metric {
	var ms []telemetry.Metric
	counter := func(name string, v int64) {
		ms = append(ms, telemetry.Metric{Name: name, Kind: telemetry.KindCounter, Value: float64(v)})
	}
	gauge := func(name string, v float64) {
		ms = append(ms, telemetry.Metric{Name: name, Kind: telemetry.KindGauge, Value: v})
	}

	for _, class := range requestClasses {
		cm := s.classes[class]
		counter("serve/"+class+"_requests", cm.requests.Load())
		counter("serve/"+class+"_errors", cm.errors.Load())
		if st := cm.histStat(); st.Count > 0 {
			ms = append(ms, telemetry.Metric{
				Name:  "serve/" + class + "_latency_micros",
				Kind:  telemetry.KindHistogram,
				Hists: []telemetry.HistStat{st},
			})
		}
	}

	cs := s.cache.Stats()
	counter("serve/cache_hits", cs.Hits)
	counter("serve/cache_misses", cs.Misses)
	counter("serve/cache_evictions", cs.Evictions)
	gauge("serve/cache_entries", float64(cs.Entries))
	gauge("serve/cache_capacity", float64(cs.Capacity))

	counter("serve/batches", s.batcher.batches.Load())
	counter("serve/batch_coalesced", s.batcher.coalesced.Load())

	counter("serve/sweeps", s.sweeps.Load())
	counter("serve/sweep_rows", s.sweepRows.Load())

	sort.Slice(ms, func(i, j int) bool { return ms[i].Name < ms[j].Name })
	return ms
}
