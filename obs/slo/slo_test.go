package slo

import (
	"strings"
	"testing"
	"time"

	"caar/obs"
)

// fakeSource is a settable cumulative counter pair.
type fakeSource struct{ good, total uint64 }

func (f *fakeSource) src() (uint64, uint64) { return f.good, f.total }

func testConfig(now *time.Time) Config {
	return Config{
		FastWindow:    time.Minute,
		SlowWindow:    5 * time.Minute,
		SampleEvery:   10 * time.Second,
		BurnThreshold: 10,
		MinEvents:     10,
		TripCooldown:  time.Hour,
		Now:           func() time.Time { return *now },
	}
}

func objLatency(name string) Objective {
	return Objective{Name: name, Endpoint: "/v1/recommendations", Kind: KindLatency,
		Threshold: 100 * time.Millisecond, Target: 0.99}
}

func TestBurnRateMath(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewTracker(testConfig(&now), nil)
	fs := &fakeSource{}
	if err := tr.Add(objLatency("rec"), fs.src, 0.1); err != nil {
		t.Fatal(err)
	}

	// Baseline, then one minute later 100 requests of which 80 good: bad
	// ratio 0.2, budget 0.01 → burn 20 in both windows.
	tr.Sample(now)
	fs.good, fs.total = 80, 100
	now = now.Add(time.Minute)
	tr.Sample(now)

	st := tr.Status()
	if len(st.Objectives) != 1 {
		t.Fatalf("objectives = %d", len(st.Objectives))
	}
	for _, w := range st.Objectives[0].Windows {
		if got, want := w.BurnRate, 20.0; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s burn = %v, want %v", w.Window, got, want)
		}
		if w.Total != 100 || w.Good != 80 {
			t.Errorf("%s good/total = %d/%d, want 80/100", w.Window, w.Good, w.Total)
		}
		if got, want := w.BudgetRemaining, 1-20.0; got < want-1e-9 || got > want+1e-9 {
			t.Errorf("%s budget = %v, want %v", w.Window, got, want)
		}
	}
	if !st.Objectives[0].Breaching {
		t.Error("burn 20 over threshold 10 with 100 events should breach")
	}
}

func TestEmptyWindowIsNotAnAnomaly(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewTracker(testConfig(&now), nil)
	fs := &fakeSource{}
	if err := tr.Add(objLatency("rec"), fs.src, 0.1); err != nil {
		t.Fatal(err)
	}

	// No samples at all.
	st := tr.Status()
	for _, w := range st.Objectives[0].Windows {
		if w.BurnRate != 0 || w.Complete {
			t.Errorf("empty ring: %s burn=%v complete=%v, want 0/false", w.Window, w.BurnRate, w.Complete)
		}
	}

	// One sample: still no interval to difference over.
	tr.Sample(now)
	st = tr.Status()
	for _, w := range st.Objectives[0].Windows {
		if w.BurnRate != 0 || w.Complete {
			t.Errorf("single sample: %s burn=%v complete=%v, want 0/false", w.Window, w.BurnRate, w.Complete)
		}
	}

	// Two samples with zero traffic: burn stays 0, budget intact.
	now = now.Add(time.Minute)
	tr.Sample(now)
	st = tr.Status()
	for _, w := range st.Objectives[0].Windows {
		if w.BurnRate != 0 || w.BudgetRemaining != 1 {
			t.Errorf("zero traffic: %s burn=%v budget=%v", w.Window, w.BurnRate, w.BudgetRemaining)
		}
	}
	if st.Objectives[0].Breaching {
		t.Error("zero traffic must not breach")
	}
}

func TestCounterResetClearsRing(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewTracker(testConfig(&now), nil)
	fs := &fakeSource{good: 1000, total: 1000}
	if err := tr.Add(objLatency("rec"), fs.src, 0.1); err != nil {
		t.Fatal(err)
	}
	tr.Sample(now)
	now = now.Add(30 * time.Second)
	fs.good, fs.total = 2000, 2000
	tr.Sample(now)

	// Restart: counters start over far below the previous reading. Without
	// reset detection the deltas would underflow to ~2^64.
	fs.good, fs.total = 3, 10
	now = now.Add(30 * time.Second)
	tr.Sample(now)

	st := tr.Status()
	for _, w := range st.Objectives[0].Windows {
		if w.Total != 0 {
			t.Errorf("%s total = %d after reset, want 0 (ring rebuilt from new baseline)", w.Window, w.Total)
		}
	}

	// The next interval differences against the post-reset baseline.
	fs.good, fs.total = 53, 110
	now = now.Add(30 * time.Second)
	tr.Sample(now)
	st = tr.Status()
	w := st.Objectives[0].Windows[0]
	if w.Total != 100 || w.Good != 50 {
		t.Errorf("post-reset window good/total = %d/%d, want 50/100", w.Good, w.Total)
	}
}

func TestMinEventsGuardsTrip(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	cfg := testConfig(&now)
	var trips []Trip
	cfg.OnTrip = func(tp Trip) { trips = append(trips, tp) }
	tr := NewTracker(cfg, nil)
	fs := &fakeSource{}
	if err := tr.Add(objLatency("rec"), fs.src, 0.1); err != nil {
		t.Fatal(err)
	}

	// 5 events, all bad: burn is enormous but under MinEvents=10.
	tr.Sample(now)
	fs.good, fs.total = 0, 5
	now = now.Add(time.Minute)
	tr.Sample(now)
	if len(trips) != 0 {
		t.Fatalf("tripped on %d events, MinEvents=10", 5)
	}

	// 100 events, all bad: trips once, then the cooldown holds.
	fs.good, fs.total = 0, 105
	now = now.Add(time.Minute)
	tr.Sample(now)
	if len(trips) != 1 {
		t.Fatalf("trips = %d, want 1", len(trips))
	}
	fs.good, fs.total = 0, 205
	now = now.Add(time.Minute)
	tr.Sample(now)
	if len(trips) != 1 {
		t.Fatalf("trips = %d after cooldown-guarded resample, want 1", len(trips))
	}
	if got := trips[0]; got.Objective != "rec" || got.FastBurn < 10 {
		t.Errorf("trip = %+v", got)
	}
}

func TestLatencySourceQuantization(t *testing.T) {
	reg := obs.NewRegistry()
	h := reg.Histogram("caar_test_latency_seconds", "t", []float64{0.01, 0.05, 0.1, 0.5})

	// Threshold between bounds quantizes down (stricter).
	src, eff := LatencySource(h, 200*time.Millisecond)
	if eff != 0.1 {
		t.Fatalf("effective threshold = %v, want 0.1", eff)
	}
	// Threshold below every bound uses the first bound.
	_, eff = LatencySource(h, time.Millisecond)
	if eff != 0.01 {
		t.Fatalf("effective threshold = %v, want 0.01", eff)
	}

	h.Observe(0.02) // good (<= 0.1)
	h.Observe(0.09) // good
	h.Observe(0.3)  // bad
	good, total := src()
	if good != 2 || total != 3 {
		t.Fatalf("good/total = %d/%d, want 2/3", good, total)
	}
}

func TestAvailabilitySourceClampsSkew(t *testing.T) {
	var total, errs uint64 = 10, 15 // errors momentarily ahead
	src := AvailabilitySource(func() uint64 { return total }, func() uint64 { return errs })
	good, tot := src()
	if good != 0 || tot != 10 {
		t.Fatalf("good/total = %d/%d, want 0/10", good, tot)
	}
}

func TestSlowWindowBaselineTrimming(t *testing.T) {
	now := time.Unix(1_700_000_000, 0)
	tr := NewTracker(testConfig(&now), nil) // slow window 5m, sample every 10s
	fs := &fakeSource{}
	if err := tr.Add(objLatency("rec"), fs.src, 0.1); err != nil {
		t.Fatal(err)
	}
	// 20 minutes of sampling: ring must not grow past the slow window.
	for i := 0; i < 120; i++ {
		fs.total += 10
		fs.good += 10
		now = now.Add(10 * time.Second)
		tr.Sample(now)
	}
	tr.mu.Lock()
	n := len(tr.objs[0].ring)
	tr.mu.Unlock()
	// 5m window at 10s cadence = 30 samples + 1 baseline, small slack.
	if n > 33 {
		t.Fatalf("ring holds %d samples, want <= 33 for a 5m window", n)
	}
	st := tr.Status()
	slow := st.Objectives[0].Windows[1]
	if !slow.Complete {
		t.Error("slow window should be complete after 20 minutes of samples")
	}
	if slow.Total != 300 {
		t.Errorf("slow window total = %d, want 300 (30 intervals x 10)", slow.Total)
	}
}

func TestParseObjectives(t *testing.T) {
	objs, err := ParseObjectives(DefaultObjectivesSpec)
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("parsed %d objectives, want 3", len(objs))
	}
	if objs[0].Kind != KindLatency || objs[0].Threshold != 250*time.Millisecond {
		t.Errorf("objs[0] = %+v", objs[0])
	}
	if objs[2].Kind != KindAvailability || objs[2].Endpoint != "/v1/recommendations" {
		t.Errorf("objs[2] = %+v", objs[2])
	}
	names := map[string]bool{}
	for _, o := range objs {
		if names[o.Name] {
			t.Errorf("duplicate derived name %q", o.Name)
		}
		names[o.Name] = true
	}

	for _, bad := range []string{
		"/v1/posts:250ms",                           // missing target
		"/v1/posts:250ms:1.5",                       // target out of range
		"/v1/posts:nonsense:0.99",                   // unparseable threshold
		"/v1/posts:250ms:0.99,/v1/posts:250ms:0.99", // duplicate
		"/v1/posts:250ms:0.99x",                     // trailing garbage
		"/v1/posts:250ms:0.99.5",                    // two decimal points
		"/v1/posts:250ms:9e-1junk",                  // garbage after an exponent
	} {
		if _, err := ParseObjectives(bad); err == nil {
			t.Errorf("ParseObjectives(%q) accepted", bad)
		}
	}
}

func TestTrackerMetricNames(t *testing.T) {
	reg := obs.NewRegistry()
	now := time.Unix(1_700_000_000, 0)
	tr := NewTracker(testConfig(&now), reg)
	fs := &fakeSource{}
	if err := tr.Add(objLatency("rec"), fs.src, 0.1); err != nil {
		t.Fatal(err)
	}
	tr.Sample(now)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`caar_slo_burn_rate_ratio{objective="rec",window="fast"}`,
		`caar_slo_budget_remaining_ratio{objective="rec",window="slow"}`,
		`caar_slo_breaching{objective="rec"}`,
		`caar_slo_target_ratio{objective="rec"} 0.99`,
		"caar_slo_samples_total 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
