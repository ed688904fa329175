package adstore

import (
	"errors"
	"math"
	"testing"
	"time"

	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

var flightStart = time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)

func validAd(id AdID) *Ad {
	return &Ad{
		ID:     id,
		Vec:    textproc.SparseVector{{ID: 1, W: 0.6}, {ID: 2, W: 0.8}},
		Target: geo.Circle{Center: geo.Point{Lat: 1.35, Lng: 103.82}, RadiusKm: 25},
		Slots:  timeslot.AllSlots,
		Bid:    0.5,
	}
}

func TestAdValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*Ad)
		wantErr error
	}{
		{"valid", func(a *Ad) {}, nil},
		{"empty vec", func(a *Ad) { a.Vec = textproc.SparseVector{} }, ErrEmptyVec},
		{"zero bid", func(a *Ad) { a.Bid = 0 }, ErrBadBid},
		{"negative bid", func(a *Ad) { a.Bid = -0.1 }, ErrBadBid},
		{"bid above one", func(a *Ad) { a.Bid = 1.01 }, ErrBadBid},
		{"NaN bid", func(a *Ad) { a.Bid = math.NaN() }, ErrBadBid},
		{"infinite bid", func(a *Ad) { a.Bid = math.Inf(1) }, ErrBadBid},
		{"no radius", func(a *Ad) { a.Target.RadiusKm = 0 }, ErrBadTarget},
		{"NaN radius", func(a *Ad) { a.Target.RadiusKm = math.NaN() }, ErrBadTarget},
		{"infinite radius", func(a *Ad) { a.Target.RadiusKm = math.Inf(1) }, ErrBadTarget},
		{"bad center", func(a *Ad) { a.Target.Center.Lat = 95 }, geo.ErrInvalidCoordinate},
		{"no slots", func(a *Ad) { a.Slots = 0 }, ErrNoSlots},
		{"global ignores target", func(a *Ad) { a.Global = true; a.Target = geo.Circle{} }, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			a := validAd(1)
			tt.mutate(a)
			err := a.Validate()
			if tt.wantErr == nil {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if !errors.Is(err, tt.wantErr) {
				t.Fatalf("Validate = %v, want %v", err, tt.wantErr)
			}
		})
	}
}

func TestAdEligible(t *testing.T) {
	eligible := func(a *Ad, loc geo.Point, hasLoc bool, sl timeslot.Slot) bool {
		g, ok := a.Place(loc, hasLoc, sl)
		if want := a.GeoScore(loc, hasLoc); ok && g != want {
			t.Errorf("Place's geo score %v, GeoScore %v", g, want)
		}
		return ok
	}
	a := validAd(1)
	a.Slots = timeslot.NewSet(timeslot.Morning)
	inside := geo.Point{Lat: 1.35, Lng: 103.82}
	outside := geo.Point{Lat: 51.5, Lng: -0.12}
	if !eligible(a, inside, true, timeslot.Morning) {
		t.Error("in-range in-slot should be eligible")
	}
	if eligible(a, inside, true, timeslot.Afternoon) {
		t.Error("wrong slot should be ineligible")
	}
	if eligible(a, outside, true, timeslot.Morning) {
		t.Error("out-of-range should be ineligible")
	}
	if eligible(a, inside, false, timeslot.Morning) {
		t.Error("unknown location should be ineligible for geo-targeted ad")
	}
	g := validAd(2)
	g.Global = true
	g.Target = geo.Circle{}
	if !eligible(g, outside, true, timeslot.Morning) || !eligible(g, geo.Point{}, false, timeslot.Night) {
		t.Error("global ad should be eligible anywhere, any known slot")
	}
}

func TestAdGeoScore(t *testing.T) {
	a := validAd(1)
	if got := a.GeoScore(a.Target.Center, true); got != 1 {
		t.Errorf("GeoScore at center = %v", got)
	}
	if got := a.GeoScore(geo.Point{Lat: 51.5, Lng: -0.12}, true); got != 0 {
		t.Errorf("GeoScore far away = %v", got)
	}
	if got := a.GeoScore(a.Target.Center, false); got != 0 {
		t.Errorf("GeoScore unknown loc = %v", got)
	}
	g := validAd(2)
	g.Global = true
	if got := g.GeoScore(geo.Point{Lat: 51.5, Lng: -0.12}, true); got != 1 {
		t.Errorf("global GeoScore = %v", got)
	}
}

func TestCampaignValidation(t *testing.T) {
	end := flightStart.Add(24 * time.Hour)
	for _, c := range []struct {
		name       string
		budget     float64
		start, end time.Time
	}{
		{"zero budget", 0, flightStart, end},
		{"NaN budget", math.NaN(), flightStart, end},
		{"infinite budget", math.Inf(1), flightStart, end},
		{"inverted flight", 10, end, flightStart},
		{"zero-length flight", 10, flightStart, flightStart},
		// Times a snapshot cannot encode (RFC 3339): accepted, they would fail
		// every later Snapshot.
		{"year-10000 end", 10, flightStart, time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)},
		{"year -1 start", 10, time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC), end},
		{"25h zone offset", 10, flightStart, end.In(time.FixedZone("far", 25*3600))},
	} {
		if _, err := NewCampaign("c", c.budget, c.start, c.end); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

func TestCampaignPacing(t *testing.T) {
	end := flightStart.Add(10 * time.Hour)
	c, err := NewCampaign("c", 100, flightStart, end)
	if err != nil {
		t.Fatal(err)
	}
	// Before flight: nothing released.
	if c.CanSpend(0.01, flightStart.Add(-time.Minute)) {
		t.Error("spend before flight allowed")
	}
	// At 10% of flight: 10 released.
	h1 := flightStart.Add(time.Hour)
	if !c.CanSpend(10, h1) {
		t.Error("pacing should release 10 after 1/10 of flight")
	}
	if c.CanSpend(10.5, h1) {
		t.Error("pacing released too much")
	}
	if err := c.Spend(10, h1); err != nil {
		t.Fatalf("Spend: %v", err)
	}
	if err := c.Spend(1, h1); err == nil {
		t.Error("overspend past pacing cap allowed")
	}
	if c.Spent() != 10 {
		t.Fatalf("Spent=%v", c.Spent())
	}
	// After flight end the full budget is available.
	if !c.CanSpend(90, end.Add(time.Hour)) {
		t.Error("full budget should be available after flight")
	}
	if c.CanSpend(91, end.Add(time.Hour)) {
		t.Error("total budget exceeded")
	}
	if err := c.Spend(-1, h1); err == nil {
		t.Error("negative spend allowed")
	}
}

func TestCampaignNeverOverspends(t *testing.T) {
	end := flightStart.Add(time.Hour)
	c, _ := NewCampaign("c", 5, flightStart, end)
	now := flightStart
	served := 0
	for i := 0; i < 10000; i++ {
		now = now.Add(400 * time.Millisecond)
		if c.CanSpend(0.01, now) {
			if err := c.Spend(0.01, now); err != nil {
				t.Fatalf("Spend after CanSpend: %v", err)
			}
			served++
		}
	}
	if c.Spent() > c.Budget+1e-9 {
		t.Fatalf("overspent: %v > %v", c.Spent(), c.Budget)
	}
	if served == 0 {
		t.Fatal("nothing served")
	}
}
