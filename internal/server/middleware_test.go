package server

import (
	"encoding/json"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	caar "caar"
	"caar/obs/trace"
)

// panicAPI wraps an API and panics on Post, simulating a handler bug.
type panicAPI struct {
	API
}

func (p panicAPI) Post(author, text string, at time.Time) error {
	panic("boom: " + text)
}

// slowAPI wraps an API and stalls reads until released.
type slowAPI struct {
	API
	gate chan struct{}
}

func (s *slowAPI) RecommendTraced(user string, k int, at time.Time, p caar.ServingPolicy, treq caar.TraceRequest) ([]caar.Recommendation, *trace.Trace, error) {
	<-s.gate
	return s.API.RecommendTraced(user, k, at, p, treq)
}

func testEngine(t *testing.T) *caar.Engine {
	t.Helper()
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestPanicRecovery: a panicking handler yields 500 and the server keeps
// serving subsequent requests.
func TestPanicRecovery(t *testing.T) {
	srv := New(panicAPI{testEngine(t)}, WithLogger(log.New(io.Discard, "", 0)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/posts", "application/json",
		strings.NewReader(`{"author":"alice","text":"trigger"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panic mapped to %d, want 500", resp.StatusCode)
	}

	// The process survived: an unrelated endpoint still works.
	resp, err = http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server dead after panic: stats %d", resp.StatusCode)
	}
	if got := srv.Health().Panics; got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
}

// TestAdmissionControlSheds saturates the server past MaxInFlight and
// expects 429 + Retry-After for the overflow, success for admitted
// requests, and full recovery once load drains.
func TestAdmissionControlSheds(t *testing.T) {
	gate := make(chan struct{})
	api := &slowAPI{API: testEngine(t), gate: gate}
	srv := New(api, WithMaxInFlight(2))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Occupy both slots with requests blocked inside the engine.
	var wg sync.WaitGroup
	release := func() { close(gate) }
	statuses := make([]int, 2)
	for i := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/recommendations?user=alice&k=1")
			if err == nil {
				statuses[i] = resp.StatusCode
				resp.Body.Close()
			}
		}()
	}
	// Wait until both are in flight.
	deadline := time.Now().Add(5 * time.Second)
	for srv.inFlight.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight requests never arrived")
		}
		time.Sleep(time.Millisecond)
	}

	// Third request is shed immediately with Retry-After.
	resp, err := http.Get(ts.URL + "/v1/recommendations?user=alice&k=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d (%s), want 429", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra != 1 {
		t.Fatalf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}

	// Health stays reachable while saturated.
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.InFlight != 2 || h.Shed != 1 {
		t.Fatalf("health under load = %+v", h)
	}

	// Drain: blocked requests complete successfully and capacity returns.
	release()
	wg.Wait()
	for i, st := range statuses {
		if st != http.StatusOK {
			t.Fatalf("admitted request %d: status %d", i, st)
		}
	}
	resp, err = http.Get(ts.URL + "/v1/recommendations?user=alice&k=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: status %d", resp.StatusCode)
	}
}

// TestRequestDeadline bounds a stuck handler with 503.
func TestRequestDeadline(t *testing.T) {
	gate := make(chan struct{})
	defer close(gate)
	api := &slowAPI{API: testEngine(t), gate: gate}
	ts := httptest.NewServer(New(api, WithRequestTimeout(50*time.Millisecond)).Handler())
	defer ts.Close()

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/recommendations?user=alice&k=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stuck request: status %d, want 503", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline not enforced: took %v", elapsed)
	}
	// The timeout 503 must look like every other error response: JSON with
	// the right media type, not a content-sniffed text/html body.
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("timeout response Content-Type = %q, want application/json", ct)
	}
	var eb struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatalf("timeout response body not JSON: %v", err)
	}
	if eb.Error == "" {
		t.Fatal("timeout response has empty error field")
	}

	// A request that completes in time keeps the handler's own Content-Type.
	resp2, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("healthz through timeout middleware: status %d", resp2.StatusCode)
	}
	if ct := resp2.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("healthz Content-Type = %q, want application/json", ct)
	}
}
