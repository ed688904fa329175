package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	caar "caar"
	"caar/internal/faultinject"
	"caar/obs"
	"caar/obs/capture"
	"caar/obs/slo"
)

// TestSLOTripCapturesAttributableBundle is the incident pipeline end to end:
// an injected serving-path latency fault must trip the burn-rate watchdog,
// the trip must produce a capture bundle, and the bundle's CPU profile must
// attribute the injected delay site — the same chain adserver wires through
// slo.Config.OnTrip, sampled by the tracker's own Run loop as adserver runs
// it.
func TestSLOTripCapturesAttributableBundle(t *testing.T) {
	if err := faultinject.ArmDelays("serve.recommend:2ms"); err != nil {
		t.Fatal(err)
	}
	defer faultinject.DisarmDelays()

	reg := obs.NewRegistry()
	cfg := caar.DefaultConfig()
	cfg.Metrics = reg
	cfg.DecayHalfLife = time.Hour
	eng, err := caar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seedSLOSmoke(t, eng)

	rec, err := capture.NewRecorder(capture.Config{
		Dir:                t.TempDir(),
		CPUProfileDuration: time.Second,
		Metrics:            reg,
	})
	if err != nil {
		t.Fatal(err)
	}

	// OnTrip does exactly what adserver's wiring does: capture while the
	// anomaly is still happening. The channel carries the result out.
	type captured struct {
		bundle string
		err    error
	}
	got := make(chan captured, 1)
	sloCfg := slo.Config{
		FastWindow:    5 * time.Second,
		SlowWindow:    10 * time.Second,
		SampleEvery:   100 * time.Millisecond,
		BurnThreshold: 14.4,
		MinEvents:     10,
		OnTrip: func(tp slo.Trip) {
			bundle, err := rec.Capture("anomaly", "test trip: "+tp.Objective, false)
			select {
			case got <- captured{bundle, err}:
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
	srv := New(eng,
		WithMetrics(reg),
		WithSLO(sloCfg, obj),
		WithCapture(rec),
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

	// Closed-loop load: every recommend busy-spins 2ms, blowing the 1ms
	// objective, and keeps the delay site hot for the CPU profile.
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

	var c captured
	select {
	case c = <-got:
	case <-time.After(10 * time.Second):
		t.Fatal("Run never sampled a trip / capture did not land")
	}
	if c.err != nil {
		t.Fatalf("capture after trip: %v", c.err)
	}

	cpu, err := rec.ReadFile(c.bundle, "cpu.pprof")
	if err != nil {
		t.Fatalf("read cpu.pprof: %v", err)
	}
	if len(cpu) == 0 {
		t.Fatal("cpu.pprof is empty")
	}
	if !gzipContains(t, cpu, "faultinject") {
		t.Fatalf("injected delay site not attributable in cpu.pprof (%d bytes)", len(cpu))
	}

	// The bundle must name the hot key driving the anomaly: the closed-loop
	// load hammers alice's recommendations, so hotkeys.json must rank her
	// first in the users dimension.
	hk, err := rec.ReadFile(c.bundle, "hotkeys.json")
	if err != nil {
		t.Fatalf("read hotkeys.json: %v", err)
	}
	var hot struct {
		Dimensions []struct {
			Dimension string `json:"dimension"`
			Keys      []struct {
				Key string `json:"key"`
			} `json:"keys"`
		} `json:"dimensions"`
	}
	if err := json.Unmarshal(hk, &hot); err != nil {
		t.Fatalf("hotkeys.json: %v (%s)", err, hk)
	}
	hotUser := ""
	for _, d := range hot.Dimensions {
		if d.Dimension == "users" && len(d.Keys) > 0 {
			hotUser = d.Keys[0].Key
		}
	}
	if hotUser != "alice" {
		t.Fatalf("hotkeys.json does not name the hot user: %s", hk)
	}

	// The bundle must also be reachable over the operator surface.
	resp, err := http.Get(ts.URL + "/v1/capturez")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/capturez: status %d", resp.StatusCode)
	}
	var list struct {
		Bundles []capture.BundleInfo `json:"bundles"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, b := range list.Bundles {
		if b.Name == c.bundle {
			found = true
		}
	}
	if !found {
		t.Fatalf("bundle %q not listed by /v1/capturez (%d bundles)", c.bundle, len(list.Bundles))
	}

	// And the SLO report must show the objective breaching.
	resp2, err := http.Get(ts.URL + "/v1/slo")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st slo.Status
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
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
}

// TestSLOAndCaptureEndpointsAbsentByDefault: a server built without WithSLO /
// WithCapture must 404 the operator endpoints rather than serving empty
// documents that look like a healthy-but-idle watchdog.
func TestSLOAndCaptureEndpointsAbsentByDefault(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, path := range []string{"/v1/slo", "/v1/capturez"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s without wiring: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// gzipContains reports whether the gzipped blob's decompressed payload
// contains the substring — the pprof string table stores symbol names raw,
// so this attributes a function without a protobuf decoder.
func gzipContains(t *testing.T, gzipped []byte, substr string) bool {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(gzipped))
	if err != nil {
		t.Fatalf("gunzip: %v", err)
	}
	defer zr.Close()
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("gunzip read: %v", err)
	}
	return bytes.Contains(raw, []byte(substr))
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
