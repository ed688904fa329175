// Command adgen generates a synthetic social-ads workload (the substitute
// for the original Twitter crawl; see DESIGN.md §4) and prints its
// statistics. A workload is reproduced by its configuration and seed, so the
// flags are all there is to save.
//
// Usage:
//
//	adgen                                            # the default workload
//	adgen -users 2000 -ads 10000 -messages 20000 -seed 1
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"caar/workload"
)

func main() {
	cfg := workload.DefaultConfig()
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	flag.IntVar(&cfg.Users, "users", cfg.Users, "number of users")
	flag.IntVar(&cfg.Ads, "ads", cfg.Ads, "number of ads")
	flag.IntVar(&cfg.Messages, "messages", cfg.Messages, "number of posts")
	flag.IntVar(&cfg.Topics, "topics", cfg.Topics, "latent topics")
	flag.IntVar(&cfg.AvgFollowees, "followees", cfg.AvgFollowees, "average followees per user")
	flag.Parse()

	start := time.Now()
	w, err := workload.Generate(cfg)
	if err != nil {
		log.Fatalf("adgen: %v", err)
	}
	took := time.Since(start)

	posts, checkins := 0, 0
	for _, e := range w.Events {
		if e.Kind == workload.EventPost {
			posts++
		} else {
			checkins++
		}
	}
	_, maxFan := w.Graph.MaxFanout()
	fmt.Printf("users          %d\n", len(w.Users))
	fmt.Printf("edges          %d\n", w.Graph.Edges())
	fmt.Printf("max fan-out    %d\n", maxFan)
	fmt.Printf("ads            %d\n", len(w.Ads))
	fmt.Printf("posts          %d\n", posts)
	fmt.Printf("check-ins      %d\n", checkins)
	if len(w.Events) > 0 {
		fmt.Printf("span           %v\n", w.Events[len(w.Events)-1].Time.Sub(w.Events[0].Time).Round(time.Second))
	}
	fmt.Printf("generated in   %v\n", took.Round(time.Millisecond))
}
