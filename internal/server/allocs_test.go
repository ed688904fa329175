//go:build !race

package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	caar "caar"
)

// allocFixture is an engine with 50 users in a follow ring, 200 ads over a
// small vocabulary and 20 posts, so a recommend for any user returns k ads.
func allocFixture(t *testing.T) *caar.Engine {
	t.Helper()
	cfg := caar.DefaultConfig()
	cfg.DecayHalfLife = time.Hour
	eng, err := caar.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	words := []string{"coffee", "running", "shoes", "pizza", "jazz", "concert", "sale", "beach", "hiking", "books"}
	for i := 0; i < 50; i++ {
		if err := eng.AddUser(fmt.Sprintf("u%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 50; i++ {
		for _, d := range []int{1, 7} {
			if err := eng.Follow(fmt.Sprintf("u%d", i), fmt.Sprintf("u%d", (i+d)%50)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 200; i++ {
		text := words[i%10] + " " + words[(i/10)%10]
		if err := eng.AddAd(caar.Ad{ID: fmt.Sprintf("ad%d", i), Text: text, Bid: 0.1 + float64(i%9)/10}); err != nil {
			t.Fatal(err)
		}
	}
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		if err := eng.Post(fmt.Sprintf("u%d", i), words[i%10]+" and "+words[(i+3)%10], at.Add(time.Duration(i)*time.Second)); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

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
