// Package obs is the runtime observability spine of the recommender: a
// dependency-free, concurrency-safe metrics registry with Prometheus
// text-format exposition.
//
// The experiment harness keeps its own *offline* instrumentation (precision
// and recall, raw latency samples); a serving system needs *online*
// instrumentation: atomic counters and gauges updated on the hot path,
// fixed-bucket histograms scraped by Prometheus, and sampled gauges reading
// live engine state.
//
// Metric types:
//
//   - Counter / CounterVec — monotonically increasing uint64 counts.
//   - Gauge / GaugeFunc — a settable float64, or one sampled at scrape time.
//   - Histogram / HistogramVec — fixed exponential buckets, atomic updates,
//     exposed with cumulative buckets, +Inf, _sum and _count.
//
// Registration is get-or-create: asking for an existing name with the same
// type returns the existing collector, so several subsystems can share one
// registry without coordination. Asking with a different type panics — that
// is a programming error, not a runtime condition.
//
// All times are recorded in seconds (float64), the Prometheus convention.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// metricKind discriminates collector types at registration.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindCounterFunc
	kindCounterFloatFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc, kindCounterFloatFunc:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one registered metric name: its metadata plus every labeled
// series under it. A scalar metric is a family with one unlabeled series.
type family struct {
	name   string
	help   string
	kind   metricKind
	labels []string  // label names; empty for scalar metrics
	bounds []float64 // histogram upper bounds (families of kindHistogram)

	mu     sync.RWMutex
	series map[string]any // label-value key → *Counter | *Gauge | *Histogram
	order  []string       // insertion-ordered keys (sorted at exposition)

	// sampled collectors (scalar only).
	gaugeFn        func() float64
	counterFn      func() uint64
	counterFloatFn func() float64
}

// Registry holds named metric families. The zero value is not usable; use
// NewRegistry. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family for name, creating it with the given shape on
// first registration. A name re-registered with a different kind or label
// arity panics: two subsystems disagreeing about what a metric *is* must
// fail loudly at startup, not export garbage.
func (r *Registry) lookup(name, help string, kind metricKind, labels []string, bounds []float64) *family {
	if name == "" {
		panic("obs: metric with empty name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.families[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s/%d labels (was %s/%d)",
				name, kind, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		kind:   kind,
		labels: append([]string(nil), labels...),
		bounds: bounds,
		series: make(map[string]any),
	}
	r.families[name] = f
	return f
}

// seriesKey joins label values into a map key. Label values may contain any
// bytes; \xff is vanishingly unlikely in real label values and a collision
// would only merge two series, never corrupt memory.
func seriesKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, "\xff")
}

// child returns the series for the given label values, creating it with
// mk() on first use.
func (f *family) child(values []string, mk func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.RLock()
	c, ok := f.series[key]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[key]; ok {
		return c
	}
	c = mk()
	f.series[key] = c
	f.order = append(f.order, key)
	return c
}

// ---------------------------------------------------------------- Counter

// Counter is a monotonically increasing count. All methods are safe for
// concurrent use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Counter registers (or returns) a scalar counter.
func (r *Registry) Counter(name, help string) *Counter {
	f := r.lookup(name, help, kindCounter, nil, nil)
	return f.child(nil, func() any { return new(Counter) }).(*Counter)
}

// CounterVec is a counter family partitioned by label values.
type CounterVec struct{ f *family }

// CounterVec registers (or returns) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec without labels; use Counter")
	}
	return &CounterVec{f: r.lookup(name, help, kindCounter, labels, nil)}
}

// With returns the counter for the given label values, creating it on first
// use. The returned pointer may be cached by hot paths.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return new(Counter) }).(*Counter)
}

// Func makes the series for the given label values a sampled one: its value
// is read from fn at scrape time, as CounterFunc does for a scalar — for
// counts already kept elsewhere (under a lock a scrape may take, say).
// Setting the same label values again replaces the function (last wins).
func (v *CounterVec) Func(fn func() uint64, values ...string) {
	f := v.f
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := seriesKey(values)
	f.mu.Lock()
	if _, ok := f.series[key]; !ok {
		f.order = append(f.order, key)
	}
	f.series[key] = sampledCounter(fn)
	f.mu.Unlock()
}

// sampledCounter is a labeled counter series read at scrape time.
type sampledCounter func() uint64

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for counts already tracked by an existing atomic elsewhere.
// Re-registering the same name replaces the function (last wins).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	f := r.lookup(name, help, kindCounterFunc, nil, nil)
	f.mu.Lock()
	f.counterFn = fn
	f.mu.Unlock()
}

// CounterFloatFunc is CounterFunc for cumulative quantities that are
// naturally fractional (seconds of GC pause, ratios of budgets): the value
// must still be monotone non-decreasing, it is just exposed as a float.
// Re-registering the same name replaces the function (last wins).
func (r *Registry) CounterFloatFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindCounterFloatFunc, nil, nil)
	f.mu.Lock()
	f.counterFloatFn = fn
	f.mu.Unlock()
}

// ------------------------------------------------------------------ Gauge

// Gauge is a settable float64 value. All methods are safe for concurrent
// use.
type Gauge struct {
	bits atomic.Uint64 // float64 bits
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Gauge registers (or returns) a scalar gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	f := r.lookup(name, help, kindGauge, nil, nil)
	return f.child(nil, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeVec is a gauge family partitioned by label values.
type GaugeVec struct{ f *family }

// GaugeVec registers (or returns) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec without labels; use Gauge")
	}
	return &GaugeVec{f: r.lookup(name, help, kindGauge, labels, nil)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return new(Gauge) }).(*Gauge)
}

// GaugeFunc registers a gauge sampled from fn at scrape time — the right
// tool for live state (index sizes, window occupancy, budget remaining)
// that would be wasteful to mirror into a stored gauge on every mutation.
// Re-registering the same name replaces the function (last wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	f := r.lookup(name, help, kindGaugeFunc, nil, nil)
	f.mu.Lock()
	f.gaugeFn = fn
	f.mu.Unlock()
}

// -------------------------------------------------------------- Histogram

// Histogram counts observations into fixed buckets with exponential upper
// bounds, tracking an exact sum and count. Observe is wait-free except for
// the CAS on the sum; a scrape concurrent with observations may see a sum
// and count that differ by in-flight samples, which Prometheus tolerates.
type Histogram struct {
	bounds []float64       // ascending upper bounds; +Inf is implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // float64 bits
	count  atomic.Uint64

	// exemplars (see exemplar.go): lazily allocated slot per bucket holding
	// the latest attached exemplar (empty TraceID = unset). A slice, not a
	// map, so attaching on the hot serving path is a mutex-guarded value
	// copy with no per-attach allocation.
	exMu sync.Mutex
	ex   []BucketExemplar
}

func newHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// bucketIndex returns the index of the bucket v falls into: the first bound
// >= v, or the +Inf bucket.
func (h *Histogram) bucketIndex(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucketIndex(v)].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of samples.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// ExpBuckets returns n histogram upper bounds growing exponentially from
// min by factor: min, min·factor, min·factor², …
func ExpBuckets(min, factor float64, n int) []float64 {
	if min <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets wants min > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := min
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// LatencyBuckets is the default request-latency layout: 20 exponential
// buckets from 50 µs to ~26 s, matched to the µs–s spread between an
// in-memory top-k hit and a fsync-bound write under load.
var LatencyBuckets = ExpBuckets(50e-6, 2, 20)

// Histogram registers (or returns) a scalar histogram. bounds must be
// ascending; nil uses LatencyBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if bounds == nil {
		bounds = LatencyBuckets
	}
	checkBounds(name, bounds)
	f := r.lookup(name, help, kindHistogram, nil, bounds)
	return f.child(nil, func() any { return newHistogram(f.bounds) }).(*Histogram)
}

// HistogramVec is a histogram family partitioned by label values.
type HistogramVec struct{ f *family }

// HistogramVec registers (or returns) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec without labels; use Histogram")
	}
	if bounds == nil {
		bounds = LatencyBuckets
	}
	checkBounds(name, bounds)
	return &HistogramVec{f: r.lookup(name, help, kindHistogram, labels, bounds)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return newHistogram(v.f.bounds) }).(*Histogram)
}

func checkBounds(name string, bounds []float64) {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not ascending at %d", name, i))
		}
	}
	if len(bounds) > 0 && math.IsInf(bounds[len(bounds)-1], +1) {
		panic(fmt.Sprintf("obs: histogram %q must not include +Inf explicitly", name))
	}
}

// sortedFamilies returns families in name order (stable exposition).
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	out := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, f)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
