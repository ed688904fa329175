package index

import (
	"testing"

	"caar/internal/adstore"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

func geoAd(id adstore.AdID, lat, lng, radiusKm, bid float64) *adstore.Ad {
	return &adstore.Ad{
		ID:     id,
		Vec:    textproc.SparseVector{{ID: 1, W: 1}},
		Target: geo.Circle{Center: geo.Point{Lat: lat, Lng: lng}, RadiusKm: radiusKm},
		Slots:  timeslot.AllSlots,
		Bid:    bid,
	}
}

func globalAd(id adstore.AdID, bid float64) *adstore.Ad {
	return &adstore.Ad{
		ID:     id,
		Vec:    textproc.SparseVector{{ID: 1, W: 1}},
		Global: true,
		Slots:  timeslot.AllSlots,
		Bid:    bid,
	}
}

func newGeoAds(t *testing.T) *GeoAds {
	t.Helper()
	g, err := NewGeoAds(geo.NewRect(geo.Point{Lat: 0, Lng: 0}, geo.Point{Lat: 10, Lng: 10}), 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGeoAdsLocalCandidates(t *testing.T) {
	g := newGeoAds(t)
	g.Add(1, geoAd(1, 5, 5, 10, 0.5))
	g.Add(2, geoAd(2, 9, 9, 10, 0.5))
	here := geo.Point{Lat: 5, Lng: 5}
	cands := g.LocalCandidates(here)
	found := false
	for _, id := range cands {
		if id == 1 {
			found = true
		}
		if id == 2 {
			t.Fatal("far ad in local candidates")
		}
	}
	if !found {
		t.Fatal("nearby ad missing from candidates")
	}
	if got := g.LocalCandidates(geo.Point{Lat: 50, Lng: 50}); got != nil {
		t.Fatalf("outside coverage: %v", got)
	}
}

func TestGeoAdsGlobalByBidOrder(t *testing.T) {
	g := newGeoAds(t)
	// Slots in another order than IDs: the list follows bid, then ID.
	g.Add(4, globalAd(1, 0.3))
	g.Add(3, globalAd(2, 0.9))
	if r := g.Add(2, globalAd(3, 0.9)); r != geo.Everywhere { // tie: lower ID first
		t.Fatalf("a global ad's reach is %+v", r)
	}
	g.Add(1, globalAd(4, 0.5))
	got := g.GlobalByBid()
	want := []adstore.AdID{2, 3, 4, 1}
	if len(got) != len(want) {
		t.Fatalf("GlobalByBid = %v, want IDs %v", got, want)
	}
	for i := range want {
		if got[i].id != want[i] || got[i].Slot != uint32(5-want[i]) {
			t.Fatalf("GlobalByBid = %v, want IDs %v", got, want)
		}
	}
}

func TestGeoAdsRemove(t *testing.T) {
	g := newGeoAds(t)
	r1 := g.Add(1, geoAd(1, 5, 5, 10, 0.5))
	r2 := g.Add(2, globalAd(2, 0.7))
	g.Remove(1, r1)
	g.Remove(2, r2)
	if got := g.LocalCandidates(geo.Point{Lat: 5, Lng: 5}); len(got) != 0 {
		t.Fatalf("removed geo ad still indexed: %v", got)
	}
	if got := g.GlobalByBid(); len(got) != 0 {
		t.Fatalf("removed global ad still listed: %v", got)
	}
	g.Remove(99, geo.Everywhere) // unknown: no-op
	g.Remove(99, r1)
}

func TestGeoAdsNoFalseNegatives(t *testing.T) {
	g := newGeoAds(t)
	// An ad whose circle covers the query point must always be in the
	// candidate cell list (the grid guarantee).
	g.Add(7, geoAd(7, 3, 3, 200, 0.5))
	probes := []geo.Point{{Lat: 3, Lng: 3}, {Lat: 3.9, Lng: 3}, {Lat: 3, Lng: 4.5}}
	for _, p := range probes {
		ad := geoAd(7, 3, 3, 200, 0.5)
		if !ad.Target.Contains(p) {
			continue
		}
		found := false
		for _, id := range g.LocalCandidates(p) {
			if id == 7 {
				found = true
			}
		}
		if !found {
			t.Fatalf("covered point %v missing candidate", p)
		}
	}
}
