package server

import (
	"fmt"
	"net/http/httptest"
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

// TestRecommendBodyBytes pins the default recommend body's size for the
// fixture's ten ads, so a change to what the body carries shows as an exact
// count: each recommendation is its AdID and Score alone, and the
// decomposition is left to ?explain=1.
func TestRecommendBodyBytes(t *testing.T) {
	h := New(allocFixture(t)).Handler()
	at := time.Date(2026, 7, 6, 9, 1, 0, 0, time.UTC).Format(time.RFC3339)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest("GET", "/v1/recommendations?user=u3&k=10&at="+at, nil))
	const want = 467
	if w.Code != 200 || w.Body.Len() != want {
		t.Fatalf("status %d, %d bytes, want 200 and %d bytes:\n%s", w.Code, w.Body.Len(), want, w.Body.Bytes())
	}
}
