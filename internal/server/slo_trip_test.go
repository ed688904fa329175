package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	caar "caar"
	"caar/obs"
	"caar/obs/slo"
	"caar/obs/trace"
)

// slowRecommend is an API whose recommend path takes at least delay: the
// latency fault the SLO watchdog must notice.
type slowRecommend struct {
	API
	delay time.Duration
}

func (s slowRecommend) RecommendTraced(user string, k int, at time.Time, policy caar.ServingPolicy, treq caar.TraceRequest) ([]caar.Recommendation, *trace.Trace, error) {
	time.Sleep(s.delay)
	return s.API.RecommendTraced(user, k, at, policy, treq)
}

// TestSLOTripReportsBreach is the watchdog end to end, sampled by the
// tracker's own Run loop as adserver runs it: recommends slowed past a 1ms
// objective must trip it, the trip must show in /v1/slo and in
// caar_slo_trips_total, and OnTrip — adserver's log line — must fire exactly
// once while the breach lasts inside the cooldown.
func TestSLOTripReportsBreach(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := caar.DefaultConfig()
	cfg.Metrics = reg
	cfg.DecayHalfLife = time.Hour
	eng, err := caar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedSLOSmoke(t, eng)

	var onTrips atomic.Int64
	tripped := make(chan struct{}, 1)
	sloCfg := slo.Config{
		FastWindow:    5 * time.Second,
		SlowWindow:    10 * time.Second,
		SampleEvery:   50 * time.Millisecond,
		BurnThreshold: 14.4,
		MinEvents:     10,
		TripCooldown:  time.Hour,
		OnTrip: func(slo.Trip) {
			onTrips.Add(1)
			select {
			case tripped <- struct{}{}:
			default:
			}
		},
	}
	obj := slo.Objective{
		Name:      "rec-test",
		Endpoint:  "/v1/recommendations",
		Kind:      slo.KindLatency,
		Threshold: time.Millisecond,
		Target:    0.99,
	}
	srv := New(slowRecommend{API: eng, delay: 2 * time.Millisecond},
		WithMetrics(reg),
		WithSLO(sloCfg, obj),
	)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tracker := srv.SLO()
	if tracker == nil {
		t.Fatal("WithSLO did not install a tracker")
	}
	runStop, runExited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(runExited)
		tracker.Run(runStop)
	}()
	defer func() { close(runStop); <-runExited }()

	// Closed-loop load: every recommend takes 2ms, blowing the 1ms objective.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(ts.URL + "/v1/recommendations?user=alice&k=3")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	defer func() { close(stop); wg.Wait() }()

	select {
	case <-tripped:
	case <-time.After(10 * time.Second):
		t.Fatal("Run never sampled a trip")
	}
	// The breach goes on for ten more samples; the cooldown holds OnTrip to
	// the one call.
	time.Sleep(10 * sloCfg.SampleEvery)

	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st slo.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	breaching := false
	for _, o := range st.Objectives {
		if o.Name == "rec-test" && o.Breaching {
			breaching = true
		}
	}
	if !breaching {
		t.Fatalf("/v1/slo does not report rec-test breaching: %+v", st.Objectives)
	}

	respM, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	scrape, err := io.ReadAll(respM.Body)
	respM.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^caar_slo_trips_total\{objective="rec-test"\} (\S+)$`).FindSubmatch(scrape)
	if m == nil {
		t.Fatal("caar_slo_trips_total{objective=\"rec-test\"} missing from the scrape")
	}
	if trips, err := strconv.ParseFloat(string(m[1]), 64); err != nil || trips < 1 {
		t.Fatalf("caar_slo_trips_total = %s, want at least 1", m[1])
	}
	if n := onTrips.Load(); n != 1 {
		t.Fatalf("OnTrip fired %d times within the cooldown, want 1", n)
	}
}

// TestSLOEndpointAbsentByDefault: a server built without WithSLO must 404
// /v1/slo rather than serve an empty document that looks like a
// healthy-but-idle watchdog.
func TestSLOEndpointAbsentByDefault(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /v1/slo without WithSLO: status %d, want 404", resp.StatusCode)
	}
}

func seedSLOSmoke(t *testing.T, eng *caar.Engine) {
	t.Helper()
	for _, u := range []string{"alice", "bob"} {
		if err := eng.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddAd(caar.Ad{ID: "shoes", Text: "marathon running shoes spring sale", Bid: 0.4}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Post("bob", "long marathon run this morning, shoes finally broke in", time.Now()); err != nil {
		t.Fatal(err)
	}
}
