package client

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	caar "caar"
	"caar/internal/server"
)

func newClientServer(t *testing.T) *Client {
	t.Helper()
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(server.New(eng).Handler())
	t.Cleanup(ts.Close)
	c, err := New(ts.URL, WithHTTPClient(ts.Client()))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidation(t *testing.T) {
	if _, err := New("not a url"); err == nil {
		t.Error("garbage URL accepted")
	}
	if _, err := New(""); err == nil {
		t.Error("empty URL accepted")
	}
	if _, err := New("http://localhost:1/"); err != nil {
		t.Errorf("valid URL rejected: %v", err)
	}
}

func TestClientRoundTrip(t *testing.T) {
	c := newClientServer(t)
	ctx := context.Background()
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

	for _, u := range []string{"alice", "bob"} {
		if err := c.AddUser(ctx, u); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Follow(ctx, "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := c.AddCampaign(ctx, "spring", 10, at.Add(-12*time.Hour), at.Add(12*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddAd(ctx, caar.Ad{
		ID: "shoes", Text: "marathon running shoes", Campaign: "spring", Bid: 0.4,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddAd(ctx, caar.Ad{
		ID: "cafe", Text: "espresso downtown", Bid: 0.3,
		Target: &caar.Target{Lat: 1.5, Lng: 1.5, RadiusKm: 25},
		Slots:  []caar.Slot{caar.Morning},
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckIn(ctx, "alice", 1.5, 1.5, at); err != nil {
		t.Fatal(err)
	}
	if err := c.Post(ctx, "bob", "marathon run then espresso", at); err != nil {
		t.Fatal(err)
	}

	recs, err := c.Recommend(ctx, "alice", 3, at.Add(time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("recs = %+v", recs)
	}

	served, err := c.ServeImpression(ctx, "shoes", at.Add(time.Hour))
	if err != nil || !served {
		t.Fatalf("impression: %v %v", served, err)
	}

	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Users != 2 || st.Ads != 2 {
		t.Fatalf("stats = %+v", st)
	}

	if err := c.Unfollow(ctx, "alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveAd(ctx, "cafe"); err != nil {
		t.Fatal(err)
	}
	if st, _ := c.Stats(ctx); st.Ads != 1 || st.FollowEdges != 0 {
		t.Fatalf("after removals: %+v", st)
	}
}

func TestClientErrorClassification(t *testing.T) {
	c := newClientServer(t)
	ctx := context.Background()
	at := time.Now()

	var ae *APIError
	err := c.Post(ctx, "ghost", "hello", at)
	if !asAPIError(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("posting as ghost: %v", err)
	}
	if _, err := c.Recommend(ctx, "ghost", 3, at); !asAPIError(err, &ae) || ae.StatusCode != 404 {
		t.Fatalf("recommend ghost: %v", err)
	}
	if err := c.AddUser(ctx, "alice"); err != nil {
		t.Fatal(err)
	}
	err = c.AddUser(ctx, "alice")
	if !asAPIError(err, &ae) || ae.StatusCode != 409 {
		t.Fatalf("duplicate user: %v", err)
	}
	if ae.Error() == "" {
		t.Fatal("empty error message")
	}
	// Context cancellation surfaces as a transport error, not APIError.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if err := c.AddUser(cancelled, "bob"); err == nil || asAPIError(err, &ae) {
		t.Fatalf("cancelled context: %v", err)
	}
}

func asAPIError(err error, into **APIError) bool {
	ae, ok := err.(*APIError)
	if ok {
		*into = ae
	}
	return ok
}

func TestClientAdIDEscaping(t *testing.T) {
	c := newClientServer(t)
	ctx := context.Background()
	if err := c.AddAd(ctx, caar.Ad{ID: "sale 50%/off", Text: "big sneaker sale", Bid: 0.2}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveAd(ctx, "sale 50%/off"); err != nil {
		t.Fatalf("escaped removal failed: %v", err)
	}
}
