// Geocampaign: geographic targeting and budget pacing. Two cafés run
// campaigns targeting different districts; a user moving between districts
// sees recommendations follow their location, and a paced budget stops an
// over-served campaign mid-flight.
//
//	go run ./examples/geocampaign
package main

import (
	"fmt"
	"log"
	"time"

	caar "caar"
)

func main() {
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.AddUser("maya"); err != nil {
		log.Fatal(err)
	}

	day := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	morning := day.Add(9 * time.Hour)

	// Campaign flight: the whole day; pacing releases budget pro rata, so at
	// noon half of the 1.0 budget (= one 0.3 impression plus change) is out.
	if err := eng.AddCampaign("river-espresso-launch", 1.0, day, day.Add(24*time.Hour)); err != nil {
		log.Fatal(err)
	}

	ads := []caar.Ad{
		{
			ID: "river-espresso", Text: "espresso tasting flight by the river",
			Campaign: "river-espresso-launch", Bid: 0.3,
			Target: &caar.Target{Lat: 1.0, Lng: 1.0, RadiusKm: 25},
		},
		{
			ID: "hill-coffee", Text: "pour over coffee with a hill view",
			Bid: 0.3, Target: &caar.Target{Lat: 3.0, Lng: 3.0, RadiusKm: 25},
		},
		{ID: "vpn-anywhere", Text: "vpn service works anywhere", Bid: 0.2},
	}
	for _, ad := range ads {
		if err := eng.AddAd(ad); err != nil {
			log.Fatal(err)
		}
	}

	// Maya reads about coffee — both cafés are textually relevant.
	if err := eng.Post("maya", "craving a really good espresso or pour over coffee", morning); err != nil {
		log.Fatal(err)
	}

	show := func(where string) {
		recs, err := eng.Recommend("maya", 3, morning)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s:\n", where)
		for _, r := range recs {
			fmt.Printf("  %-16s score=%.4f (geo=%.4f)\n", r.AdID, r.Score, r.Geo)
		}
	}

	// Near the river district: river-espresso is in range, hill-coffee not.
	if err := eng.CheckIn("maya", 1.05, 1.05, morning); err != nil {
		log.Fatal(err)
	}
	show("maya near the river (1.05, 1.05)")

	// She moves to the hills: eligibility flips.
	if err := eng.CheckIn("maya", 2.95, 2.95, morning); err != nil {
		log.Fatal(err)
	}
	show("maya in the hills (2.95, 2.95)")

	// Budget pacing: at 12:00, half the flight elapsed → 0.3 released,
	// exactly one 0.3-bid impression can be billed.
	noon := day.Add(12 * time.Hour)
	for i := 1; i <= 2; i++ {
		served, err := eng.ServeImpression("", "river-espresso", noon)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("impression %d of river-espresso at noon: served=%v\n", i, served)
	}

	// Back at the river, the paced-out campaign no longer appears.
	if err := eng.CheckIn("maya", 1.05, 1.05, noon); err != nil {
		log.Fatal(err)
	}
	recs, err := eng.Recommend("maya", 3, noon)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("after the budget pacing cap, back at the river:")
	for _, r := range recs {
		fmt.Printf("  %-16s score=%.4f\n", r.AdID, r.Score)
	}
}
