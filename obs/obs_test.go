package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden pins the exact Prometheus text output for one of
// each metric type: HELP/TYPE headers, label rendering and escaping,
// cumulative histogram buckets ending at +Inf, and _sum/_count.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()

	c := r.CounterVec("test_requests_total", "Requests by endpoint.", "endpoint", "class")
	c.With("/v1/recommendations", "2xx").Add(3)
	c.With("/v1/posts", "5xx").Inc()

	g := r.Gauge("test_inflight", "In-flight requests.")
	g.Set(2)

	// Label escaping: backslash, quote, newline.
	e := r.CounterVec("test_escapes_total", `Help with \ and "quotes"`, "path")
	e.With("a\\b\"c\nd").Inc()

	h := r.Histogram("test_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005) // bucket le=0.001
	h.Observe(0.05)   // bucket le=0.1
	h.Observe(5)      // +Inf bucket only

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	got := b.String()

	want := `# HELP test_escapes_total Help with \\ and "quotes"
# TYPE test_escapes_total counter
test_escapes_total{path="a\\b\"c\nd"} 1
# HELP test_inflight In-flight requests.
# TYPE test_inflight gauge
test_inflight 2
# HELP test_latency_seconds Latency.
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{le="0.001"} 1
test_latency_seconds_bucket{le="0.01"} 1
test_latency_seconds_bucket{le="0.1"} 2
test_latency_seconds_bucket{le="+Inf"} 3
test_latency_seconds_sum 5.0505
test_latency_seconds_count 3
# HELP test_requests_total Requests by endpoint.
# TYPE test_requests_total counter
test_requests_total{endpoint="/v1/posts",class="5xx"} 1
test_requests_total{endpoint="/v1/recommendations",class="2xx"} 3
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestGaugeAndCounterFuncs(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("test_sampled", "Sampled gauge.", func() float64 { return 7.5 })
	r.CounterFunc("test_sampled_total", "Sampled counter.", func() uint64 { return 42 })
	byPath := r.CounterVec("test_sampled_by_path_total", "Sampled labeled counter.", "path")
	byPath.Func(func() uint64 { return 1 }, "a")
	byPath.Func(func() uint64 { return 3 }, "a") // last wins
	byPath.With("b").Add(2)                      // stored and sampled series share a family

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE test_sampled gauge\ntest_sampled 7.5\n",
		"# TYPE test_sampled_total counter\ntest_sampled_total 42\n",
		"# TYPE test_sampled_by_path_total counter\ntest_sampled_by_path_total{path=\"a\"} 3\ntest_sampled_by_path_total{path=\"b\"} 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestRuntimeGauges: RegisterRuntime exposes the four Go-runtime health
// gauges with sane (non-negative, mostly positive) values, sampled at
// scrape time.
func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	kinds := map[string]string{
		"caar_go_goroutines":             "gauge",
		"caar_go_gomaxprocs":             "gauge",
		"caar_go_heap_inuse_bytes":       "gauge",
		"caar_go_gc_pause_seconds_total": "counter", // cumulative pause: a float counter, not a gauge
	}
	for fam, kind := range kinds {
		if !strings.Contains(out, "# TYPE "+fam+" "+kind) {
			t.Errorf("runtime family %q missing from exposition:\n%s", fam, out)
			continue
		}
		var v float64
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, fam+" ") {
				if _, err := fmt.Sscanf(line, fam+" %g", &v); err != nil {
					t.Errorf("unparsable sample line %q: %v", line, err)
				}
			}
		}
		if v < 0 {
			t.Errorf("%s = %g, want >= 0", fam, v)
		}
		if (fam == "caar_go_goroutines" || fam == "caar_go_gomaxprocs" ||
			fam == "caar_go_heap_inuse_bytes") && v == 0 {
			t.Errorf("%s = 0, want > 0 in a running process", fam)
		}
	}
}

// TestHistogramExemplars: AttachExemplar annotates (without re-counting)
// the bucket an observation fell into; Exemplars returns them bucket-
// ordered and SlowestExemplar picks the highest annotated bucket.
func TestHistogramExemplars(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_ex_seconds", "h", []float64{0.001, 0.01, 0.1})
	if h.Exemplars() != nil {
		t.Error("fresh histogram must have no exemplars")
	}

	h.Observe(0.0005)
	h.AttachExemplar(0.0005, "trace-fast")
	h.Observe(5)
	h.AttachExemplar(5, "trace-slow")
	h.AttachExemplar(0.0005, "") // empty trace ID is a no-op

	if h.Count() != 2 {
		t.Fatalf("AttachExemplar changed the observation count: %d", h.Count())
	}
	ex := h.Exemplars()
	if len(ex) != 2 {
		t.Fatalf("Exemplars = %+v, want 2 entries", ex)
	}
	if ex[0].TraceID != "trace-fast" || ex[0].BucketLE != "0.001" {
		t.Errorf("fastest exemplar = %+v", ex[0])
	}
	if ex[1].TraceID != "trace-slow" || ex[1].BucketLE != "+Inf" {
		t.Errorf("slowest exemplar = %+v", ex[1])
	}
	slow, found := h.SlowestExemplar()
	if !found || slow.TraceID != "trace-slow" || slow.Value != 5 {
		t.Errorf("SlowestExemplar = %+v found=%v", slow, found)
	}
	// Replacing the same bucket keeps the newest annotation.
	h.AttachExemplar(6, "trace-slower")
	if slow, _ := h.SlowestExemplar(); slow.TraceID != "trace-slower" {
		t.Errorf("bucket exemplar not replaced: %+v", slow)
	}
}

func TestGetOrCreateIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("test_total", "h")
	b := r.Counter("test_total", "h")
	if a != b {
		t.Error("re-registering a counter returned a different instance")
	}
	h1 := r.HistogramVec("test_hist", "h", nil, "stage")
	h2 := r.HistogramVec("test_hist", "h", nil, "stage")
	if h1.With("x") != h2.With("x") {
		t.Error("re-registering a histogram vec returned different series")
	}

	defer func() {
		if recover() == nil {
			t.Error("re-registering with a different type did not panic")
		}
	}()
	r.Gauge("test_total", "h")
}

func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	h.Observe(1)   // le=1 is inclusive
	h.Observe(1.5) // le=2
	h.Observe(4)   // le=4
	h.Observe(4.1) // +Inf
	want := []uint64{1, 1, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Errorf("bucket %d: got %d, want %d", i, got, w)
		}
	}
	if h.Count() != 4 {
		t.Errorf("count %d, want 4", h.Count())
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(50e-6, 2, 4)
	want := []float64{50e-6, 100e-6, 200e-6, 400e-6}
	for i := range want {
		if diff := b[i] - want[i]; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("bucket %d: got %g, want %g", i, b[i], want[i])
		}
	}
}

// TestConcurrentUpdates hammers every metric type from many goroutines;
// run under -race this is the registry's data-race test, and the final
// counts double as a lost-update check.
func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_c_total", "")
	cv := r.CounterVec("test_cv_total", "", "k")
	g := r.Gauge("test_g", "")
	h := r.HistogramVec("test_h_seconds", "", nil, "stage")

	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	keys := []string{"a", "b", "c"}
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
				cv.With(keys[i%len(keys)]).Inc()
				g.Add(1)
				h.With(keys[(i+wk)%len(keys)]).ObserveDuration(time.Duration(i) * time.Microsecond)
				if i%100 == 0 {
					// Concurrent scrape while updates fly.
					var b strings.Builder
					if err := r.WritePrometheus(&b); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(wk)
	}
	wg.Wait()

	if c.Value() != workers*iters {
		t.Errorf("counter lost updates: %d, want %d", c.Value(), workers*iters)
	}
	if g.Value() != workers*iters {
		t.Errorf("gauge lost updates: %g, want %d", g.Value(), workers*iters)
	}
	var total uint64
	for _, k := range keys {
		total += h.With(k).Count()
	}
	if total != workers*iters {
		t.Errorf("histogram lost updates: %d, want %d", total, workers*iters)
	}
}
