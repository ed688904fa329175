package experiments

import (
	"fmt"
	"math/rand"
	"time"

	caar "caar"
)

// facadeWorkload generates a text-level workload for facade experiments
// (the facade API takes raw text; the engine-level experiments use
// pre-vectorized workloads).
type facadeWorkload struct {
	users []string
	posts []facadePost
}

type facadePost struct {
	author string
	text   string
	at     time.Time
}

func genFacadeWorkload(seed int64, users, posts, vocab, termsPerPost int) facadeWorkload {
	rng := rand.New(rand.NewSource(seed))
	w := facadeWorkload{}
	for i := 0; i < users; i++ {
		w.users = append(w.users, fmt.Sprintf("user%04d", i))
	}
	z := rand.NewZipf(rng, 1.2, 1, uint64(vocab-1))
	now := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	for i := 0; i < posts; i++ {
		now = now.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
		text := ""
		for t := 0; t < termsPerPost; t++ {
			text += fmt.Sprintf("word%04d ", z.Uint64())
		}
		w.posts = append(w.posts, facadePost{
			author: w.users[rng.Intn(users)],
			text:   text,
			at:     now,
		})
	}
	return w
}

// runFacadeParallel implements F8: post throughput of the sharded facade in
// continuous mode, on a celebrity workload where every post fans out to all
// users (so each shard receives a substantial follower group). Claim:
// throughput scales with shards up to the core count, then flattens;
// sharding with tiny per-shard groups is counterproductive (dispatch
// overhead), which the companion low-fanout row demonstrates.
func runFacadeParallel(r *Runner) error {
	nUsers := int(300 * r.Scale * 10)
	if nUsers < 100 {
		nUsers = 100
	}
	nPosts := int(60 * r.Scale * 10)
	if nPosts < 30 {
		nPosts = 30
	}
	w := genFacadeWorkload(7, nUsers, nPosts, 2000, 8)
	// Celebrity stream: every post comes from one of 4 accounts that
	// everyone follows, maximizing per-post fan-out.
	for i := range w.posts {
		w.posts[i].author = w.users[i%4]
	}

	build := func(shards int, everyoneFollowsCelebs bool) (*caar.Engine, error) {
		cfg := caar.DefaultConfig()
		cfg.Shards = shards
		cfg.ContinuousK = 10
		cfg.OnRecommend = func(string, []caar.Recommendation) {}
		eng, err := caar.Open(cfg)
		if err != nil {
			return nil, err
		}
		for _, u := range w.users {
			if err := eng.AddUser(u); err != nil {
				return nil, err
			}
		}
		for i, u := range w.users {
			if everyoneFollowsCelebs {
				for c := 0; c < 4; c++ {
					if u != w.users[c] {
						_ = eng.Follow(u, w.users[c])
					}
				}
			} else if i >= 4 && i%10 == 0 {
				_ = eng.Follow(u, w.users[i%4])
			}
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < int(2000*r.Scale*10); i++ {
			text := ""
			for t := 0; t < 6; t++ {
				text += fmt.Sprintf("word%04d ", rng.Intn(2000))
			}
			if err := eng.AddAd(caar.Ad{
				ID:   fmt.Sprintf("ad%05d", i),
				Text: text,
				Bid:  0.05 + 0.95*rng.Float64(),
			}); err != nil {
				return nil, err
			}
		}
		return eng, nil
	}

	// measure replays the post set reps times so fast configurations still
	// get a statistically meaningful wall-clock window.
	measure := func(eng *caar.Engine, reps int) (float64, error) {
		start := time.Now()
		for rep := 0; rep < reps; rep++ {
			for _, p := range w.posts {
				if err := eng.Post(p.author, p.text, p.at); err != nil {
					return 0, err
				}
			}
		}
		return Throughput{
			Events: uint64(reps * len(w.posts)), Elapsed: time.Since(start),
		}.PerSecond(), nil
	}

	high := Series{Name: "high-fanout"}
	low := Series{Name: "low-fanout"}
	for _, shards := range []int{1, 2, 4, 8} {
		for _, row := range []struct {
			series *Series
			celebs bool
			reps   int
		}{{&high, true, 1}, {&low, false, 40}} {
			eng, err := build(shards, row.celebs)
			if err != nil {
				return err
			}
			tput, err := measure(eng, row.reps)
			if err != nil {
				return err
			}
			row.series.Add(float64(shards), tput)
		}
	}
	r.printf("posts/sec by shard count (continuous top-10; GOMAXPROCS bounds the attainable speedup)\n%s",
		Table("shards", high, low))
	return nil
}
