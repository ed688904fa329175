package caar

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestTrendingTracksSlotSeparatedTerms(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")

	morningAt := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	afternoonAt := time.Date(2026, 7, 6, 15, 0, 0, 0, time.UTC)
	for i := 0; i < 20; i++ {
		e.Post("alice", "coffee espresso breakfast", morningAt.Add(time.Duration(i)*time.Minute))
	}
	for i := 0; i < 20; i++ {
		e.Post("alice", "football match highlights", afternoonAt.Add(time.Duration(i)*time.Minute))
	}
	e.Post("alice", "coffee once in the afternoon", afternoonAt.Add(time.Hour))

	morning, err := e.Trending(Morning, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(morning) != 3 {
		t.Fatalf("morning trending = %+v", morning)
	}
	for _, tt := range morning {
		if tt.Term == "footbal" || tt.Term == "match" {
			t.Fatalf("afternoon term in morning slot: %+v", morning)
		}
		if tt.Count != 20 {
			t.Fatalf("morning counts should be 20: %+v", morning)
		}
	}
	afternoon, err := e.Trending(Afternoon, 5)
	if err != nil {
		t.Fatal(err)
	}
	top := afternoon[0]
	if top.Count != 20 {
		t.Fatalf("afternoon top = %+v", afternoon)
	}
	// "coffee" appears once in the afternoon — far below the top terms.
	for i, tt := range afternoon {
		if tt.Term == "coffe" && i < 3 {
			t.Fatalf("rare term ranked too high: %+v", afternoon)
		}
	}
	// Night slot saw nothing.
	night, err := e.Trending(Night, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(night) != 0 {
		t.Fatalf("night trending = %+v", night)
	}
}

func TestTrendingValidation(t *testing.T) {
	e := openEngine(t, testConfig())
	if _, err := e.Trending("brunch", 3); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("unknown slot: %v", err)
	}
	if _, err := e.Trending(Morning, 0); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("k=0: %v", err)
	}
}

// TestTrendingUnresolvableKeyDoesNotUnderfill pins the filter-then-truncate
// order: a sketch key with no vocabulary entry (e.g. a term dropped across
// a vocab restore) must not consume one of the k result slots. The seed
// code truncated to k first and filtered second, so callers received k-1
// terms while resolvable candidates were discarded.
func TestTrendingUnresolvableKeyDoesNotUnderfill(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")
	at := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		e.Post("alice", "coffee espresso breakfast", at.Add(time.Duration(i)*time.Minute))
	}
	// Inject a heavy hitter whose key resolves to no vocabulary term,
	// outranking every real term in the slot.
	sl, _ := Morning.internal()
	e.trends.mu.Lock()
	e.trends.slots[sl].Offer(1<<40, 100)
	e.trends.mu.Unlock()

	terms, err := e.Trending(Morning, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) != 3 {
		t.Fatalf("trending under-filled: got %d terms (%+v), want 3", len(terms), terms)
	}
	for _, tt := range terms {
		if tt.Term == "" {
			t.Fatalf("unresolvable key leaked into results: %+v", terms)
		}
	}
}

func TestTrendingKClampedToCapacity(t *testing.T) {
	e := openEngine(t, testConfig())
	e.AddUser("alice")
	for i := 0; i < 100; i++ {
		e.Post("alice", fmt.Sprintf("uniqueword%03d trending now", i),
			time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC).Add(time.Duration(i)*time.Second))
	}
	terms, err := e.Trending(Morning, 500)
	if err != nil {
		t.Fatal(err)
	}
	if len(terms) > trendCapacity {
		t.Fatalf("trending returned %d terms, cap is %d", len(terms), trendCapacity)
	}
	// The stable terms ("trending", stemmed) dominate.
	if terms[0].Count < 90 {
		t.Fatalf("top term count = %+v", terms[0])
	}
}
