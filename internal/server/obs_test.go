package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	caar "caar"
	"caar/internal/faultinject"
	"caar/journal"
	"caar/obs"
)

func newObsTestServer(t *testing.T, opts ...Option) (*Server, *httptest.Server) {
	t.Helper()
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	srv := New(eng, opts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

// TestRequestIDMintedAndEchoed: every response carries an X-Request-Id — a
// client-supplied one is adopted verbatim, otherwise the server mints one.
func TestRequestIDMintedAndEchoed(t *testing.T) {
	_, ts := newObsTestServer(t)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	minted := resp.Header.Get("X-Request-Id")
	if minted == "" {
		t.Fatal("no X-Request-Id minted for a request without one")
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-Id", "client-supplied-42")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "client-supplied-42" {
		t.Fatalf("client-supplied request ID not echoed: got %q", got)
	}
	if minted == "client-supplied-42" {
		t.Fatal("minted ID collided with the client-supplied one")
	}
}

// TestSanitizeRequestID: hostile client request IDs — header-injection
// newlines, control bytes, unprintable characters, unbounded length — are
// stripped or capped before the server echoes and logs them.
func TestSanitizeRequestID(t *testing.T) {
	cases := []struct{ raw, want string }{
		{"ok-id-123", "ok-id-123"},                        // clean IDs pass verbatim
		{"evil\x00id\x7fwith\tjunk", "evilidwithjunk"},    // NUL/DEL/tab stripped
		{"inject\r\nSet-Cookie: x", "injectSet-Cookie:x"}, // CRLF and spaces gone
		{"\x01\x02\x03", ""},                              // all junk → discard, mint
		{"", ""},
		{strings.Repeat("x", 4096), strings.Repeat("x", 128)}, // capped
	}
	for _, c := range cases {
		if got := sanitizeRequestID(c.raw); got != c.want {
			t.Errorf("sanitizeRequestID(%q) = %q, want %q", c.raw, got, c.want)
		}
	}
}

// TestRequestIDSanitizedEndToEnd: the middleware applies sanitization to
// hostile-but-transmittable IDs (the http client refuses to send the worst
// bytes itself): tabs are stripped, oversized IDs are capped.
func TestRequestIDSanitizedEndToEnd(t *testing.T) {
	_, ts := newObsTestServer(t)

	send := func(t *testing.T, raw string) string {
		t.Helper()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
		req.Header["X-Request-Id"] = []string{raw} // bypass Set's canonicalization
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.Header.Get("X-Request-Id")
	}

	if got := send(t, "tab\there"); got != "tabhere" {
		t.Fatalf("tab survived sanitization: %q", got)
	}
	if got := send(t, strings.Repeat("x", 4096)); len(got) != 128 {
		t.Fatalf("overlong ID not capped at 128: len=%d %q…", len(got), got[:16])
	}
}

// TestAccessLogCarriesRequestID: the slog access-log line for a request
// carries the same request_id the response header does — the contract that
// makes a latency spike in the histogram traceable to its log line.
func TestAccessLogCarriesRequestID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	_, ts := newObsTestServer(t, WithAccessLog(logger))

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/stats", nil)
	req.Header.Set("X-Request-Id", "trace-me-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var found bool
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line struct {
			Msg       string `json:"msg"`
			RequestID string `json:"request_id"`
			Path      string `json:"path"`
			Status    int    `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("access log is not JSON: %v: %s", err, sc.Text())
		}
		if line.Msg == "http_request" && line.RequestID == "trace-me-7" {
			found = true
			if line.Path != "/v1/stats" || line.Status != http.StatusOK {
				t.Fatalf("access log line wrong: %+v", line)
			}
		}
	}
	if !found {
		t.Fatalf("no http_request line with request_id=trace-me-7 in access log:\n%s", buf.String())
	}
}

// TestStatusClassCounters: requests land in caar_http_requests_total under
// their endpoint and status class, with unknown paths collapsed into
// "other" so path scanning cannot explode cardinality.
func TestStatusClassCounters(t *testing.T) {
	_, ts := newObsTestServer(t)

	for _, path := range []string{"/v1/stats", "/v1/stats", "/no-such-endpoint"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}

	body := scrape(t, ts.URL)
	for _, want := range []string{
		`caar_http_requests_total{endpoint="/v1/stats",class="2xx"} 2`,
		`caar_http_requests_total{endpoint="other",class="4xx"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(body, `caar_http_request_seconds_count{endpoint="/v1/stats"} 2`) {
		t.Error("latency histogram did not count the /v1/stats requests")
	}
}

// TestReadinessDegradation: a journal durability failure flips /v1/readyz
// to 503 with a machine-readable reason while /v1/healthz keeps answering
// 200 (liveness), the shared registry's caar_journal_degraded gauge flips
// to 1 for alerting, and the healthz body names the journal as the problem —
// the one fact the metrics cannot carry.
func TestReadinessDegradation(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := caar.DefaultConfig()
	cfg.Metrics = reg
	eng, err := caar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	script := faultinject.NewScript(io.Discard)
	jw := journal.NewWriter(script)
	jw.SetMetrics(journal.NewMetrics(reg))
	srv := New(journal.NewLogged(eng, jw),
		WithLogger(log.New(io.Discard, "", 0)), WithMetrics(reg))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	assertReady := func(wantCode int) *http.Response {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/readyz")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode {
			t.Fatalf("readyz = %d, want %d", resp.StatusCode, wantCode)
		}
		return resp
	}
	addUser := func(name string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/users", "application/json",
			strings.NewReader(`{"handle":"`+name+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	assertReady(http.StatusOK).Body.Close()

	script.Fail(errors.New("disk full"))
	resp := addUser("alice")
	resp.Body.Close()
	if resp.StatusCode < 500 {
		t.Fatalf("mutation with failing journal = %d, want 5xx", resp.StatusCode)
	}

	resp = assertReady(http.StatusServiceUnavailable)
	var degraded struct {
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&degraded); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if degraded.Status != "degraded" || len(degraded.Reasons) == 0 ||
		!strings.Contains(degraded.Reasons[0], "journal") {
		t.Fatalf("degraded readyz body wrong: %+v", degraded)
	}

	// Liveness stays up and reports the same problem without a 503.
	resp, err = http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz while degraded = %d, want 200 (liveness)", resp.StatusCode)
	}
	if h.Status != "degraded" || len(h.Problems) == 0 || !strings.Contains(h.Problems[0], "journal") {
		t.Fatalf("healthz body did not name the journal among its problems: %+v", h)
	}

	// The shared registry reflects the same state for alerting: the
	// degraded gauge is 1 and caar_ready is 0.
	body := scrape(t, ts.URL)
	for _, want := range []string{"caar_journal_degraded 1", "caar_ready 0",
		"caar_journal_append_errors_total 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q while degraded", want)
		}
	}
}

// scrape fetches /v1/metrics and returns the exposition body.
func scrape(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics scrape: %d", resp.StatusCode)
	}
	return string(body)
}
