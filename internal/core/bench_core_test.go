package core

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"time"
	"unsafe"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/index"
	"caar/internal/timeslot"
	"caar/workload"
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
		msg := feed.Message{ID: msgID, Time: now, Vec: randVec(rng, 8, 2000)}
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

func randAdB(rng *rand.Rand, id adstore.AdID) *adstore.Ad {
	a := &adstore.Ad{
		ID:    id,
		Vec:   randVec(rng, 6, 2000),
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
					Vec:  randVec(rng, 8, 2000),
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
// before it had them. entries/user is the size of a refreshed user's
// candidate buffer: the users are located and two ads in three are
// geo-targeted, so it shows how much of the text match a cell scopes away.
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
				msg := feed.Message{ID: feed.MessageID(1<<30 + i), Time: now, Vec: randVec(rng, 8, 2000)}
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
				b.ReportMetric(float64(c.TotalBufferEntries())/float64(len(fanout)), "entries/user")
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
					msg := feed.Message{ID: feed.MessageID(1<<30 + 5*i + j), Time: now, Vec: randVec(rng, 8, 2000)}
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

// BenchmarkRerank measures the re-rank a continuous top-5 refresh falls back
// to: one user with a full window (32 messages) over 2 000 ads, of which
// about 1 100 share a term with the window and the ~490 that can reach the
// user's cell are buffered, and a check-in (untimed, in the same cell) before
// each TopAds that drops the user's view. records/rerank is the score stage's out-count, the
// ads whose records the ranking read because their score ceiling could still
// enter the collector; near the buffer's size means the ceiling is not
// skipping.
func BenchmarkRerank(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	e, err := NewCAP(defaultBenchScoring(), nil, region, 32, 32, DefaultCAPOptions())
	if err != nil {
		b.Fatal(err)
	}
	for id := adstore.AdID(1); id <= 2000; id++ {
		if err := e.AddAd(randAdB(rng, id)); err != nil {
			b.Fatal(err)
		}
	}
	e.AddUser(0)
	loc, now := geo.Point{Lat: 5, Lng: 5}, base0
	if err := e.CheckIn(0, loc, now); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < e.scoring.WindowCap; i++ {
		now = now.Add(time.Second)
		if err := e.Deliver(feed.Message{ID: feed.MessageID(i + 1), Time: now, Vec: randVec(rng, 8, 2000)}, []feed.UserID{0}); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := e.TopAds(0, 5, now); err != nil { // warms the buffer
		b.Fatal(err)
	}
	records := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := e.CheckIn(0, loc, now); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, err := e.TopAds(0, 5, now); err != nil {
			b.Fatal(err)
		}
		records += e.LastQuery().Stages[StageScore].Out
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/rerank")
	b.ReportMetric(float64(records)/float64(b.N), "records/rerank")
	b.ReportMetric(float64(e.BufferSize(0)), "entries")
}

// BenchmarkRegisterAd measures the one cost the canonical workloads cannot
// see, an ad registered while users are warm: 2 000 users whose full windows
// (32 messages) their buffers are up to date with, 5 000 ads, and one more ad
// registered per operation, plus the read of every user that settles it (the
// ad is withdrawn again and that settled, untimed). Each message reaches 20
// or 2 followers, so a resident message sits in that many windows; a settling
// read sums its own user's aggregate whatever the fan-out. ns/warm-user is a
// registration's cost per warm user.
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
				msg := feed.Message{ID: feed.MessageID(i + 1), Time: now, Vec: randVec(rng, 8, 2000)}
				if err := e.Deliver(msg, followers); err != nil {
					b.Fatal(err)
				}
			}
			settle := func() {
				for u := feed.UserID(0); u < users; u++ {
					e.BufferSize(u)
				}
			}
			settle()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				a := randAdB(rng, adstore.AdID(ads+1+i))
				if err := e.store.Add(a); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				e.Register(a)
				settle()
				b.StopTimer()
				e.Unregister(a.ID)
				if err := e.store.Remove(a.ID); err != nil {
					b.Fatal(err)
				}
				settle()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*users), "ns/warm-user")
		})
	}
}

// BenchmarkMerge times dynBuf.merge alone, per merge, in the shape of a
// catch-up after one delivery: one evicted and one arriving delta list of 40
// entries each, into a buffer of 460. The merges cycle through 2 000 buffers,
// about 11 MB, so each finds its buffer and lists cold in cache, as a
// catch-up after a fan-out does. Each buffer swaps two lists back and forth —
// the one it holds is evicted, the other arrives — so every merge does the
// same work.
func BenchmarkMerge(b *testing.B) {
	const buffers, held, moved = 2000, 420, 40
	rng := rand.New(rand.NewSource(1))
	type pair struct {
		buf dynBuf
		in  []index.Delta // held, evicted by the next merge
		out []index.Delta // not held, arriving at the next merge
	}
	pairs := make([]pair, buffers)
	for p := range pairs {
		slots := rng.Perm(5000)[:held+2*moved]
		list := func(ss []int) []index.Delta {
			slices.Sort(ss)
			l := make([]index.Delta, len(ss))
			for i, s := range ss {
				l[i] = index.Delta{Slot: uint32(s), Coeff: index.Pack(0.01 + rng.Float64())}
			}
			return l
		}
		base, in, out := list(slots[:held]), list(slots[held:held+moved]), list(slots[held+moved:])
		pr := &pairs[p]
		pr.buf = dynBuf{scale: 1}
		pr.buf.fill(held + moved)
		pr.buf.e = append(append(pr.buf.e[:0], base...), in...)
		slices.SortFunc(pr.buf.e, func(x, y index.Delta) int { return cmp.Compare(x.Slot, y.Slot) })
		pr.in, pr.out = in, out
	}
	var scratch []index.Delta
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pr := &pairs[i%buffers]
		lists := []weighted{{d: pr.in, c: -1}, {d: pr.out, c: 1}}
		scratch = pr.buf.merge(scratch, lists, 1, math.Inf(1))
		pr.in, pr.out = pr.out, pr.in
	}
	b.StopTimer()
	for _, pr := range pairs {
		if len(pr.buf.e) != held+moved {
			b.Fatalf("a buffer holds %d entries after its merges, want %d", len(pr.buf.e), held+moved)
		}
	}
}

// liveBytesPer returns the heap bytes that n calls of build leave reachable,
// per call, size classes included: the live heap after a collection, before
// and after. build must keep what it makes reachable from the caller.
func liveBytesPer(n int, build func(i int)) float64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range n {
		build(i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// windowBytes is what one user's feed window holds at the default window
// size, over 10 000 windows: the window and its ring of post pointers. The
// posts are shared, and counted once each, apart (BenchmarkUserBytes).
func windowBytes() float64 {
	s := DefaultScoring()
	wins := make([]*feed.Window, 10000)
	per := liveBytesPer(len(wins), func(i int) { wins[i] = feed.NewWindow(s.WindowCap, s.Decay) })
	runtime.KeepAlive(wins)
	return per
}

// TestWindowBytesPerUser holds a user's feed window, which every user has
// whether anybody reads their feed or not, to 400 bytes at the default
// window size: a ring of 8-byte pointers to shared post records, where a
// ring of 64-byte message copies took 2 392.
func TestWindowBytesPerUser(t *testing.T) {
	if got := windowBytes(); got > 400 {
		t.Fatalf("a %d-post window holds %.0f bytes, want at most 400", DefaultScoring().WindowCap, got)
	}
}

// BenchmarkUserBytes is the per-user memory probe for the users nobody reads:
// the bytes of a feed window at the default size (window-B/user), and of a
// cold CAP user as AddUser makes it — window, user record, empty candidate
// buffer and the user table's share — over 10 000 users (cold-B/user), and
// the bytes of a post record (post-B), which each window it reaches points
// at. b.N is ignored: the probe runs once.
func BenchmarkUserBytes(b *testing.B) {
	e, err := NewCAP(DefaultScoring(), nil, region, 32, 32, DefaultCAPOptions())
	if err != nil {
		b.Fatal(err)
	}
	const users = 10000
	cold := liveBytesPer(users, func(i int) { e.AddUser(feed.UserID(i)) })
	runtime.KeepAlive(e)
	posts := make([]*feed.Post, users)
	post := liveBytesPer(users, func(i int) { posts[i] = &feed.Post{Message: feed.Message{ID: feed.MessageID(i)}} })
	runtime.KeepAlive(posts)
	b.ReportMetric(windowBytes(), "window-B/user")
	b.ReportMetric(cold, "cold-B/user")
	b.ReportMetric(post, "post-B")
}

// BenchmarkWarmUserBytes is the per-user memory probe: the bytes of the
// candidate buffers of the users whose buffers are warm, split into the
// entries they hold (len) and the room they keep (cap), and the bytes of
// the shared delta lists, per warm user. It replays the canonical
// benchmark's dataset in fanout_stream's shape — 2 000 users, 5 000 ads, a
// post delivered to its author and followers and every recipient's top 5
// refreshed, a check-in now and then — for 8 000 posts, and measures at the
// end. Element sizes are read off the slices, so the probe runs unchanged
// on any layout of the entries. b.N is ignored: the probe runs once.
func BenchmarkWarmUserBytes(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Ads, cfg.Celebrities, cfg.CelebrityFollowFrac = 5000, 3, 0.2
	w, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewCAP(defaultBenchScoring(), nil, cfg.Region, 64, 64, DefaultCAPOptions())
	if err != nil {
		b.Fatal(err)
	}
	for _, u := range w.Users {
		e.AddUser(u.ID)
		if err := e.CheckIn(u.ID, u.Home, cfg.Start); err != nil {
			b.Fatal(err)
		}
	}
	for _, a := range w.InitialAds() {
		if err := e.AddAd(a); err != nil {
			b.Fatal(err)
		}
	}
	var fanout []feed.UserID
	for i, posts := 0, 0; i < len(w.Events) && posts < 8000; i++ {
		switch ev := &w.Events[i]; ev.Kind {
		case workload.EventCheckIn:
			if err := e.CheckIn(ev.User, ev.Loc, ev.Time); err != nil {
				b.Fatal(err)
			}
		case workload.EventPost:
			posts++
			fanout = append(append(fanout[:0], ev.User), w.Graph.Followers(ev.User)...)
			if err := e.Deliver(ev.Msg, fanout); err != nil {
				b.Fatal(err)
			}
			for _, u := range fanout {
				if _, err := e.TopAds(u, 5, ev.Time); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	warm, bufLen, bufCap, deltas := 0, 0, 0, 0
	for _, st := range e.users {
		if buf := st.buf; buf != nil && buf.applied > 0 {
			size := int(unsafe.Sizeof(buf.e[0]))
			warm, bufLen, bufCap = warm+1, bufLen+len(buf.e)*size, bufCap+cap(buf.e)*size
		}
	}
	for p := range e.lists {
		deltas += cap(p.Deltas) * int(unsafe.Sizeof(p.Deltas[0]))
	}
	per := func(bytes int) float64 { return float64(bytes) / float64(warm) }
	b.ReportMetric(float64(warm), "warm-users")
	b.ReportMetric(per(bufLen), "buf-len-B/warm-user")
	b.ReportMetric(per(bufCap), "buf-cap-B/warm-user")
	b.ReportMetric(per(deltas), "delta-B/warm-user")
	b.ReportMetric(per(bufCap+deltas), "B/warm-user")
}

// BenchmarkFindDelta times one findDelta, per search, into a slot-sorted list
// of 64, 512 and 4 096 entries — a view's refresh searches a buffer of about
// 460 once per tracked and noted ad. The slots are half of [0, 2n), and the
// probes are drawn from the same range, so about half hit and where each
// lands is random: a branching search mispredicts on it.
func BenchmarkFindDelta(b *testing.B) {
	for _, n := range []int{64, 512, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			slots := rng.Perm(2 * n)[:n]
			slices.Sort(slots)
			list := make([]index.Delta, n)
			for i, s := range slots {
				list[i].Slot = uint32(s)
			}
			probes := make([]uint32, 4096)
			for i := range probes {
				probes[i] = uint32(rng.Intn(2 * n))
			}
			hits, sum := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				at, ok := findDelta(list, probes[i%len(probes)])
				sum += at
				if ok {
					hits++
				}
			}
			b.StopTimer()
			if b.N >= len(probes) && (hits == 0 || hits == b.N) {
				b.Fatalf("%d of %d probes hit: the probes need hits and misses", hits, b.N)
			}
			runtime.KeepAlive(sum)
		})
	}
}
