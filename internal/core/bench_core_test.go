package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// benchSetup loads an engine with nAds random ads and nUsers users, each
// user's window warmed with a handful of messages.
func benchSetup(b *testing.B, name string, nUsers, nAds int) (Recommender, *rand.Rand, time.Time) {
	b.Helper()
	rng := rand.New(rand.NewSource(1))
	eng, err := newEngineByName(name)
	if err != nil {
		b.Fatal(err)
	}
	for u := feed.UserID(0); u < feed.UserID(nUsers); u++ {
		eng.AddUser(u)
		if err := eng.CheckIn(u, geo.Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10}, base0); err != nil {
			b.Fatal(err)
		}
	}
	for id := adstore.AdID(1); id <= adstore.AdID(nAds); id++ {
		if err := eng.AddAd(randAdB(rng, id)); err != nil {
			b.Fatal(err)
		}
	}
	now := base0
	var msgID feed.MessageID
	for i := 0; i < nUsers*4; i++ {
		now = now.Add(time.Second)
		msgID++
		msg := feed.Message{ID: msgID, Time: now, Vec: randVecB(rng, 8, 2000)}
		fanout := []feed.UserID{feed.UserID(i % nUsers), feed.UserID((i + 1) % nUsers)}
		if err := eng.Deliver(msg, fanout); err != nil {
			b.Fatal(err)
		}
	}
	return eng, rng, now
}

func newEngineByName(name string) (Recommender, error) {
	s := defaultBenchScoring()
	switch name {
	case "RS":
		return NewRS(s, nil)
	case "IL":
		return NewIL(s, nil, region, 32, 32)
	default:
		return NewCAP(s, nil, region, 32, 32, DefaultCAPOptions())
	}
}

func defaultBenchScoring() Scoring {
	s := DefaultScoring()
	s.WindowCap = 32
	return s
}

func randVecB(rng *rand.Rand, n, vocab int) textproc.SparseVector {
	v := textproc.SparseVector{}
	for i := 0; i < n; i++ {
		v[textproc.TermID(rng.Intn(vocab))] = 0.1 + rng.Float64()
	}
	v.L2Normalize()
	return v
}

func randAdB(rng *rand.Rand, id adstore.AdID) *adstore.Ad {
	a := &adstore.Ad{
		ID:    id,
		Vec:   randVecB(rng, 6, 2000),
		Slots: timeslot.AllSlots,
		Bid:   0.05 + 0.95*rng.Float64(),
	}
	if rng.Intn(3) == 0 {
		a.Global = true
	} else {
		a.Target = geo.Circle{
			Center:   geo.Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10},
			RadiusKm: 50 + rng.Float64()*300,
		}
	}
	return a
}

// BenchmarkDeliver measures one message delivery to a 100-user fan-out, per
// engine (10k ads). CAP defers a delivery's buffer work to the follower's
// next read, so it is measured with the reads that pay for it, in the three
// regimes of the lazy buffer: nobody reads (the buffers are freed after a
// window's worth), every follower reads its top 5 after each delivery (one
// catch-up per delivery, the ContinuousK user), and every follower reads
// after every eighth (one catch-up for eight). ns/follower is the per-
// follower cost, reads included.
func BenchmarkDeliver(b *testing.B) {
	for _, bm := range []struct {
		name, engine string
		readEvery    int // 0: never
	}{
		{"RS", "RS", 0}, {"IL", "IL", 0},
		{"CAP/unread", "CAP", 0}, {"CAP/subscribed", "CAP", 1}, {"CAP/read-every-8", "CAP", 8},
	} {
		b.Run(bm.name, func(b *testing.B) {
			eng, rng, now := benchSetup(b, bm.engine, 200, 10000)
			fanout := make([]feed.UserID, 100)
			for i := range fanout {
				fanout[i] = feed.UserID(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				now = now.Add(time.Second)
				msg := feed.Message{
					ID:   feed.MessageID(1<<30 + i),
					Time: now,
					Vec:  randVecB(rng, 8, 2000),
				}
				if err := eng.Deliver(msg, fanout); err != nil {
					b.Fatal(err)
				}
				if bm.readEvery > 0 && i%bm.readEvery == bm.readEvery-1 {
					for _, u := range fanout {
						if _, err := eng.TopAds(u, 5, now); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fanout)), "ns/follower")
		})
	}
}

// BenchmarkTopAds measures one top-10 query per engine (10k ads), cycling
// over 200 users with no delivery in between: after CAP's first lap every
// query finds its user's view with nothing noted, the cheapest case.
// BenchmarkRepeatedReader is the same with deliveries in between.
func BenchmarkTopAds(b *testing.B) {
	for _, name := range []string{"RS", "IL", "CAP"} {
		b.Run(name, func(b *testing.B) {
			eng, _, now := benchSetup(b, name, 200, 10000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.TopAds(feed.UserID(i%200), 10, now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkContinuousRefresh measures what continuous mode adds to a
// delivery: one top-5 TopAds for each of the 100 followers a message
// reached, the delivery itself untimed (BenchmarkDeliver has it). CAP
// answers from its per-user views; IL re-ranks, which is also what CAP did
// before it had them.
func BenchmarkContinuousRefresh(b *testing.B) {
	for _, name := range []string{"IL", "CAP"} {
		b.Run(name, func(b *testing.B) {
			eng, rng, now := benchSetup(b, name, 200, 10000)
			fanout := make([]feed.UserID, 100)
			for i := range fanout {
				fanout[i] = feed.UserID(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				now = now.Add(time.Second)
				msg := feed.Message{ID: feed.MessageID(1<<30 + i), Time: now, Vec: randVecB(rng, 8, 2000)}
				if err := eng.Deliver(msg, fanout); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, u := range fanout {
					if _, err := eng.TopAds(u, 5, now); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(fanout)), "ns/refresh")
			if c, ok := eng.(*CAP); ok {
				view, rerank := c.TopAdsPaths()
				b.ReportMetric(float64(rerank)/float64(view+rerank), "rerank-share")
			}
		})
	}
}

// BenchmarkRepeatedReader is the feed-render pattern: the same 100 users
// come back for their top 10 again and again, and between two visits of a
// user five messages have reached them (untimed). CAP pays for what those
// five changed — unless they noted more than a view holds, the share
// reported as rerank-share; IL pays for its whole context every time.
func BenchmarkRepeatedReader(b *testing.B) {
	for _, name := range []string{"IL", "CAP"} {
		b.Run(name, func(b *testing.B) {
			eng, rng, now := benchSetup(b, name, 200, 10000)
			readers := make([]feed.UserID, 100)
			for i := range readers {
				readers[i] = feed.UserID(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 5; j++ {
					now = now.Add(time.Second)
					msg := feed.Message{ID: feed.MessageID(1<<30 + 5*i + j), Time: now, Vec: randVecB(rng, 8, 2000)}
					if err := eng.Deliver(msg, readers); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, u := range readers {
					if _, err := eng.TopAds(u, 10, now); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(readers)), "ns/read")
			if c, ok := eng.(*CAP); ok {
				view, rerank := c.TopAdsPaths()
				b.ReportMetric(float64(rerank)/float64(view+rerank), "rerank-share")
			}
		})
	}
}

// BenchmarkRegisterAd measures the one cost the canonical workloads cannot
// see, an ad registered while users are warm: 2 000 users whose full windows
// (32 messages) their buffers are up to date with, 5 000 ads, and one more ad
// registered per operation (and withdrawn again, untimed). Each message
// reaches 20 or 2 followers, so a resident message sits in that many windows:
// CAP takes each ⟨ad, message⟩ product once per registration and shares it.
// ns/warm-user is a registration's cost per warm user.
func BenchmarkRegisterAd(b *testing.B) {
	const users, ads = 2000, 5000
	for _, fanout := range []int{20, 2} {
		b.Run(fmt.Sprintf("fanout%d", fanout), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			s := defaultBenchScoring()
			e, err := NewCAP(s, nil, region, 32, 32, DefaultCAPOptions())
			if err != nil {
				b.Fatal(err)
			}
			for u := feed.UserID(0); u < users; u++ {
				e.AddUser(u)
				if err := e.CheckIn(u, geo.Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10}, base0); err != nil {
					b.Fatal(err)
				}
			}
			for id := adstore.AdID(1); id <= ads; id++ {
				if err := e.AddAd(randAdB(rng, id)); err != nil {
					b.Fatal(err)
				}
			}
			// Message i reaches the next fanout users round the ring, so every
			// window ends up holding exactly WindowCap messages.
			now, followers := base0, make([]feed.UserID, fanout)
			for i := 0; i < users*s.WindowCap/fanout; i++ {
				now = now.Add(time.Second)
				for j := range followers {
					followers[j] = feed.UserID((i*fanout + j) % users)
				}
				msg := feed.Message{ID: feed.MessageID(i + 1), Time: now, Vec: randVecB(rng, 8, 2000)}
				if err := e.Deliver(msg, followers); err != nil {
					b.Fatal(err)
				}
			}
			for u := feed.UserID(0); u < users; u++ {
				e.BufferSize(u)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := randAdB(rng, adstore.AdID(ads+1+i))
				if err := e.store.Add(a); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				e.RegisterAd(a)
				b.StopTimer()
				e.UnregisterAd(a.ID)
				if err := e.store.Remove(a.ID); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*users), "ns/warm-user")
		})
	}
}
