package caar

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"caar/internal/core"
	"caar/obs"
)

// shardWords is the vocabulary of the shard tests' posts and ads: small, so
// most posts share a term with some ad.
var shardWords = []string{"marathon", "shoes", "pizza", "espresso", "bike", "vinyl", "garden", "jacket",
	"guitar", "sushi", "yoga", "tent", "chess", "sailing", "pottery", "jazz", "ski", "coffee"}

func shardText(rng *rand.Rand, n int) string {
	words := make([]string, n)
	for i := range words {
		words[i] = shardWords[rng.Intn(len(shardWords))]
	}
	return strings.Join(words, " ")
}

// TestShardCountDoesNotChangeAnswers is the shard-count oracle: one seeded
// stream of posts, check-ins, ad registrations and withdrawals, impressions
// and clock advances runs through an engine with one shard and one with four.
// Every Recommend probe must answer the same, and every post must hand
// OnRecommend the same multiset of (user, answer).
func TestShardCountDoesNotChangeAnswers(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			type side struct {
				e *Engine
				// calls is what OnRecommend received since the last post.
				mu    sync.Mutex
				calls []string
			}
			open := func(shards int) *side {
				s := &side{}
				cfg := testConfig()
				cfg.Shards = shards
				cfg.ContinuousK = 3
				cfg.OnRecommend = func(user string, recs []Recommendation) {
					call := user + "→" + strings.Join(recStrings(recs), ",")
					s.mu.Lock()
					s.calls = append(s.calls, call)
					s.mu.Unlock()
				}
				s.e = openEngine(t, cfg)
				return s
			}
			sides := []*side{open(1), open(4)}
			rng := rand.New(rand.NewSource(seed))
			const users = 24
			user := func(i int) string { return fmt.Sprintf("u%02d", i) }
			// every applies one operation to both engines, which must agree on
			// whether it failed.
			every := func(what string, op func(e *Engine) error) {
				t.Helper()
				var errs []string
				for _, s := range sides {
					err := op(s.e)
					errs = append(errs, fmt.Sprint(err))
				}
				if errs[0] != errs[1] {
					t.Fatalf("%s: one shard says %s, four say %s", what, errs[0], errs[1])
				}
			}
			for i := 0; i < users; i++ {
				every("add user", func(e *Engine) error { return e.AddUser(user(i)) })
			}
			for i := 0; i < users; i++ {
				for range 4 {
					if f := rng.Intn(users); f != i {
						every("follow", func(e *Engine) error {
							if err := e.Follow(user(i), user(f)); err != nil && !strings.Contains(err.Error(), "already") {
								return err
							}
							return nil
						})
					}
				}
			}
			now := morning
			every("campaign", func(e *Engine) error { return e.AddCampaign("camp", 3, now, now.Add(6*time.Hour)) })
			nextAd, live := 0, []string{}
			addAd := func() {
				ad := Ad{ID: fmt.Sprintf("ad%03d", nextAd), Text: shardText(rng, 1+rng.Intn(3)), Bid: 0.05 + 0.9*rng.Float64()}
				if rng.Intn(3) == 0 {
					ad.Target = &Target{Lat: 4 * rng.Float64(), Lng: 4 * rng.Float64(), RadiusKm: 50 + 150*rng.Float64()}
				}
				if rng.Intn(3) == 0 {
					ad.Campaign = "camp"
				}
				nextAd++
				live = append(live, ad.ID)
				every("add ad", func(e *Engine) error { return e.AddAd(ad) })
			}
			for range 30 {
				addAd()
			}
			probe := func(step int) {
				u, k := user(rng.Intn(users)), 1+rng.Intn(6)
				var answers [][]string
				for _, s := range sides {
					recs, err := s.e.Recommend(u, k, now)
					if err != nil {
						t.Fatal(err)
					}
					answers = append(answers, recStrings(recs))
				}
				if !reflect.DeepEqual(answers[0], answers[1]) {
					t.Fatalf("step %d: Recommend(%s, %d): one shard %v, four %v", step, u, k, answers[0], answers[1])
				}
			}
			for step := 0; step < 400; step++ {
				now = now.Add(time.Duration(rng.Intn(90)) * time.Second)
				switch op := rng.Intn(20); {
				case op < 10:
					author, text := user(rng.Intn(users)), shardText(rng, 2+rng.Intn(4))
					var calls [][]string
					for _, s := range sides {
						s.calls = s.calls[:0]
						if err := s.e.Post(author, text, now); err != nil {
							t.Fatal(err)
						}
						calls = append(calls, slices.Sorted(slices.Values(s.calls)))
					}
					if !reflect.DeepEqual(calls[0], calls[1]) {
						t.Fatalf("step %d: post by %s: one shard refreshed %v, four %v", step, author, calls[0], calls[1])
					}
				case op < 13:
					u, lat, lng := user(rng.Intn(users)), 4*rng.Float64(), 4*rng.Float64()
					every("check-in", func(e *Engine) error { return e.CheckIn(u, lat, lng, now) })
				case op == 13:
					addAd()
				case op == 14 && len(live) > 10:
					i := rng.Intn(len(live))
					id := live[i]
					live = append(live[:i], live[i+1:]...)
					every("remove ad", func(e *Engine) error { return e.RemoveAd(id) })
				case op == 15:
					id := live[rng.Intn(len(live))]
					var served []bool
					for _, s := range sides {
						ok, err := s.e.ServeImpression("", id, now)
						if err != nil {
							t.Fatal(err)
						}
						served = append(served, ok)
					}
					if served[0] != served[1] {
						t.Fatalf("step %d: impression of %s: one shard served %v, four %v", step, id, served[0], served[1])
					}
				case op == 16:
					now = now.Add(time.Duration(1+rng.Intn(3)) * time.Hour)
				default:
					probe(step)
				}
			}
		})
	}
}

// TestSharedAdSideUnderConcurrentFanout races continuous-mode posts fanning
// out on four shards — one shard in the caller, the rest on goroutines, all
// reading the one ad index — against AddAd and RemoveAd, which write it, and
// Recommend. Its point is `go test -race`: writing the index under anything
// less than every shard lock is a data race here.
func TestSharedAdSideUnderConcurrentFanout(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 4
	cfg.ContinuousK = 3
	var refreshes atomic.Int64
	cfg.OnRecommend = func(string, []Recommendation) { refreshes.Add(1) }
	e := openEngine(t, cfg)
	const users = 32
	for i := 0; i < users; i++ {
		if err := e.AddUser(fmt.Sprintf("u%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < users; i++ {
		for _, f := range []int{0, 1 + i%3} {
			if f != i {
				if err := e.Follow(fmt.Sprintf("u%02d", i), fmt.Sprintf("u%02d", f)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for i := 0; i < 20; i++ {
		if err := e.AddAd(Ad{ID: fmt.Sprintf("base%02d", i), Text: shardWords[i%len(shardWords)] + " sale", Bid: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var stop atomic.Bool
	errc := make(chan error, 8)
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if err := f(i); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	for p := 0; p < 2; p++ {
		run(func(i int) error {
			rng := rand.New(rand.NewSource(int64(p*1000 + i)))
			return e.Post(fmt.Sprintf("u%02d", rng.Intn(3)), shardText(rng, 3), morning.Add(time.Duration(i)*time.Second))
		})
	}
	run(func(i int) error {
		id := fmt.Sprintf("churn%04d", i)
		if err := e.AddAd(Ad{ID: id, Text: shardWords[i%len(shardWords)] + " deal", Bid: 0.5}); err != nil {
			return err
		}
		return e.RemoveAd(id)
	})
	run(func(i int) error {
		_, err := e.Recommend(fmt.Sprintf("u%02d", i%users), 3, morning.Add(time.Hour))
		return err
	})
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if refreshes.Load() == 0 {
		t.Fatal("no continuous refresh ran")
	}
}

// TestSharedStructuresCountedOnce: the inverted index and the delta lists
// exist once whatever the shard count, so one shard and four report the same
// postings and cached messages over the same load — in Stats and in the
// gauges. Summing a per-shard view would multiply both by the shard count.
func TestSharedStructuresCountedOnce(t *testing.T) {
	type counts struct {
		cached                     int
		postingsGauge, cachedGauge string
		oneAdSide                  bool
		shards                     int
	}
	load := func(shards int) counts {
		cfg := testConfig()
		cfg.Shards = shards
		cfg.Metrics = obs.NewRegistry()
		e := openEngine(t, cfg)
		const users = 16
		for i := 0; i < users; i++ {
			if err := e.AddUser(fmt.Sprintf("u%02d", i)); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < users; i++ {
			if err := e.Follow(fmt.Sprintf("u%02d", i), "u00"); err != nil {
				t.Fatal(err)
			}
		}
		for i, w := range shardWords {
			if err := e.AddAd(Ad{ID: fmt.Sprintf("ad%02d", i), Text: w + " offer " + shardWords[(i+5)%len(shardWords)], Bid: 0.2}); err != nil {
				t.Fatal(err)
			}
		}
		post := func(i int) {
			if err := e.Post("u00", shardWords[i]+" "+shardWords[i+1], morning.Add(time.Duration(i)*time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		post(0)
		for i := 0; i < users; i++ { // everyone warm: delta lists get cached
			if _, err := e.Recommend(fmt.Sprintf("u%02d", i), 3, morning); err != nil {
				t.Fatal(err)
			}
		}
		for i := 1; i < 5; i++ {
			post(i)
		}
		var buf bytes.Buffer
		if err := cfg.Metrics.WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		gauge := func(name string) string {
			for _, line := range strings.Split(buf.String(), "\n") {
				if v, ok := strings.CutPrefix(line, name+" "); ok {
					return v
				}
			}
			return ""
		}
		c := counts{
			cached:        e.Stats().CachedMessages,
			postingsGauge: gauge("caar_engine_index_postings"),
			cachedGauge:   gauge("caar_engine_cached_messages"),
			oneAdSide:     true,
			shards:        len(e.shards),
		}
		for _, sh := range e.shards {
			c.oneAdSide = c.oneAdSide && sh.eng.(*core.CAP).AdIndex == e.ads
		}
		return c
	}
	one, four := load(1), load(4)
	if one.cached != 5 || one.cachedGauge != "5" || one.postingsGauge == "" {
		t.Fatalf("one shard: %+v, want the five posts cached and a postings gauge", one)
	}
	if four.shards != 4 || !four.oneAdSide {
		t.Fatalf("four shards that do not share one ad side: %+v", four)
	}
	one.shards, four.shards = 0, 0
	if one != four {
		t.Fatalf("one shard reports %+v, four report %+v", one, four)
	}
}

// TestShardsDefaultToTheCores: Shards 0 means one shard per GOMAXPROCS.
func TestShardsDefaultToTheCores(t *testing.T) {
	cfg := testConfig()
	cfg.Shards = 0
	if st := openEngine(t, cfg).Stats(); st.Shards != runtime.GOMAXPROCS(0) {
		t.Fatalf("%d shards, want GOMAXPROCS = %d", st.Shards, runtime.GOMAXPROCS(0))
	}
}
