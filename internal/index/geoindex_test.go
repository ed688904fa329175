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
		Vec:    textproc.SparseVector{1: 1},
		Target: geo.Circle{Center: geo.Point{Lat: lat, Lng: lng}, RadiusKm: radiusKm},
		Slots:  timeslot.AllSlots,
		Bid:    bid,
	}
}

func globalAd(id adstore.AdID, bid float64) *adstore.Ad {
	return &adstore.Ad{
		ID:     id,
		Vec:    textproc.SparseVector{1: 1},
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
	g.Add(geoAd(1, 5, 5, 10, 0.5))
	g.Add(geoAd(2, 9, 9, 10, 0.5))
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
	g.Add(globalAd(1, 0.3))
	g.Add(globalAd(2, 0.9))
	g.Add(globalAd(3, 0.9)) // tie: lower ID first
	g.Add(globalAd(4, 0.5))
	got := g.GlobalByBid()
	want := []adstore.AdID{2, 3, 4, 1}
	if len(got) != len(want) {
		t.Fatalf("GlobalByBid = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("GlobalByBid = %v, want %v", got, want)
		}
	}
}

func TestGeoAdsRemove(t *testing.T) {
	g := newGeoAds(t)
	g.Add(geoAd(1, 5, 5, 10, 0.5))
	g.Add(globalAd(2, 0.7))
	g.Remove(1)
	g.Remove(2)
	if got := g.LocalCandidates(geo.Point{Lat: 5, Lng: 5}); len(got) != 0 {
		t.Fatalf("removed geo ad still indexed: %v", got)
	}
	if got := g.GlobalByBid(); len(got) != 0 {
		t.Fatalf("removed global ad still listed: %v", got)
	}
	g.Remove(99) // unknown: no-op
}

func TestGeoAdsNoFalseNegatives(t *testing.T) {
	g := newGeoAds(t)
	// An ad whose circle covers the query point must always be in the
	// candidate cell list (the grid guarantee).
	g.Add(geoAd(7, 3, 3, 200, 0.5))
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
