//go:build !race

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a count through it is the server's alone.
type discardWriter struct {
	h    http.Header
	code int
}

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) WriteHeader(code int)        { w.code = code }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }

// handlerAllocs is the allocations one request costs inside
// Handler().ServeHTTP. The request, the writer and its header map are made
// by the harness, measured alone and taken off.
func handlerAllocs(h http.Handler, method, target, body string) float64 {
	mk := func() (*discardWriter, *http.Request) {
		var r *http.Request
		if body == "" {
			r = httptest.NewRequest(method, target, nil)
		} else {
			r = httptest.NewRequest(method, target, strings.NewReader(body))
		}
		return &discardWriter{h: make(http.Header)}, r
	}
	harness := testing.AllocsPerRun(200, func() { mk() })
	total := testing.AllocsPerRun(200, func() {
		w, r := mk()
		h.ServeHTTP(w, r)
		if w.code >= 300 {
			panic(fmt.Sprintf("%s %s: status %d", method, target, w.code))
		}
	})
	return total - harness
}

// TestHandlerAllocations pins what a request allocates through the whole
// middleware chain per route. The recommend route encodes its body by hand
// into a pooled buffer and reads its query without url.Values, so it costs
// little more than the engine's own read; a post or check-in goes to a stub
// queue and splits its pooled body by hand, so its count is the
// middleware's and the strings it keeps. The pins are exact counts: a race
// build drops pooled items, so this file is not built there.
func TestHandlerAllocations(t *testing.T) {
	h := New(allocFixture(t), WithIngest(&fakeQueue{})).Handler()
	at := time.Date(2026, 7, 6, 9, 1, 0, 0, time.UTC).Format(time.RFC3339)
	for _, c := range []struct {
		method, target, body string
		max                  float64
	}{
		{"GET", "/v1/recommendations?user=u3&k=10&at=" + at, "", 6},
		{"POST", "/v1/posts", `{"author":"u1","text":"coffee and jazz tonight"}`, 7},
		{"POST", "/v1/checkins", `{"user":"u1","lat":40.7128,"lng":-74.006}`, 6},
	} {
		got := handlerAllocs(h, c.method, c.target, c.body)
		t.Logf("%s %s: %.0f allocations", c.method, c.target, got)
		if got > c.max {
			t.Errorf("%s %s allocates %.0f through the handler, want at most %.0f", c.method, c.target, got, c.max)
		}
	}
}
