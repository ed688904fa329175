package core

import (
	"math/rand"
	"testing"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// TestBufferScopedToTheUserCell pins the rescoping rules of a candidate
// buffer. Every buffered ad's reach, worked out afresh from its record, holds
// the cell of the user's location; a user with no location buffers every
// global ad the window matches and nothing else. A check-in inside the
// user's cell drops the view and keeps the buffer (no rebuild); a check-in to
// another cell costs nothing until the next read, which rebuilds once. Every
// answer on the way is RS's, for all three CAP variants.
func TestBufferScopedToTheUserCell(t *testing.T) {
	s := testScoring()
	store := adstore.NewStore()
	engines, register, _ := makeEngines(t, s, store)
	rs, caps := engines[0], []*CAP{}
	for _, e := range engines[2:] {
		caps = append(caps, e.(*CAP))
	}
	// Small circles, so that a reach is a few of the 8 × 8 cells; one ad in
	// four is global. Every ad shares term 1 with every post.
	rng := rand.New(rand.NewSource(7))
	globals := 0
	for id := adstore.AdID(1); id <= 120; id++ {
		a := &adstore.Ad{ID: id, Vec: textproc.SparseVector{{ID: 1, W: 0.5}, {ID: textproc.TermID(2 + id%3), W: 1}},
			Slots: timeslot.AllSlots, Bid: 0.05 + 0.9*rng.Float64()}
		if id%4 == 0 {
			a.Global = true
			globals++
		} else {
			a.Target = geo.Circle{Center: geo.Point{Lat: rng.Float64() * 10, Lng: rng.Float64() * 10}, RadiusKm: 20 + 60*rng.Float64()}
		}
		if err := store.Add(a); err != nil {
			t.Fatal(err)
		}
		register(a)
	}
	const located, unlocated = feed.UserID(1), feed.UserID(2)
	for _, e := range engines {
		e.AddUser(located)
		e.AddUser(unlocated)
		if err := e.CheckIn(located, geo.Point{Lat: 1, Lng: 1}, base0); err != nil {
			t.Fatal(err)
		}
	}
	now, msg := base0, feed.MessageID(0)
	deliverAll := func(n int) {
		for range n {
			now, msg = now.Add(time.Minute), msg+1
			m := feed.Message{ID: msg, Time: now, Vec: textproc.SparseVector{{ID: 1, W: 1}, {ID: textproc.TermID(2 + msg%3), W: 0.5}}}
			for _, e := range engines {
				if err := e.Deliver(m, []feed.UserID{located, unlocated}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	// read asks every engine for u's top 5 and requires the CAPs' answers to
	// be RS's and their buffers to be scoped to the user's cell.
	read := func(step string, u feed.UserID) {
		t.Helper()
		want, err := rs.TopAds(u, 5, now)
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range caps {
			got, err := e.TopAds(u, 5, now)
			if err != nil {
				t.Fatal(err)
			}
			if err := scoresCompatible(want, got, 1e-9); err != nil {
				t.Fatalf("%s: CAP %d, user %d: %v\n got %+v\nwant %+v", step, i, u, err, got, want)
			}
			st := e.users[u]
			held := 0
			for _, en := range st.buf.e {
				a := e.ads[en.Slot]
				switch {
				case !st.hasLoc && !a.Global:
					t.Fatalf("%s: CAP %d buffers geo-targeted ad %d for a user with no location", step, i, a.ID)
				case st.hasLoc && !a.Global && !e.grid.Reach(a.Target.Bounds()).Holds(e.grid.Reach(geo.NewRect(st.loc, st.loc))):
					t.Fatalf("%s: CAP %d buffers ad %d, whose reach does not hold the cell of %v", step, i, a.ID, st.loc)
				case a.Global:
					held++
				}
			}
			if held != globals {
				t.Fatalf("%s: CAP %d buffers %d global ads, want all %d", step, i, held, globals)
			}
			if u == located && len(st.buf.e) == 120 {
				t.Fatalf("%s: CAP %d buffers every ad", step, i)
			}
		}
	}
	rebuilds := func() []uint64 {
		out := make([]uint64, len(caps))
		for i, e := range caps {
			_, out[i] = e.CatchUps()
		}
		return out
	}
	wantRebuilds := func(step string, before []uint64, more uint64) {
		t.Helper()
		for i, n := range rebuilds() {
			if n != before[i]+more {
				t.Fatalf("%s: CAP %d rebuilt %d times, want %d", step, i, n-before[i], more)
			}
		}
	}
	checkIn := func(p geo.Point) {
		for _, e := range engines {
			if err := e.CheckIn(located, p, now); err != nil {
				t.Fatal(err)
			}
		}
	}

	deliverAll(3)
	read("warm-up", located)
	read("warm-up", unlocated)
	deliverAll(2)
	r0 := rebuilds()
	read("merge", located)
	read("merge", unlocated)
	wantRebuilds("merge", r0, 0)

	checkIn(geo.Point{Lat: 1.1, Lng: 0.9}) // the cell of (1, 1)
	for i, e := range caps {
		if e.users[located].buf.view != nil {
			t.Fatalf("CAP %d kept its view through a check-in", i)
		}
	}
	deliverAll(1)
	read("same cell", located)
	wantRebuilds("same cell", r0, 0)

	checkIn(geo.Point{Lat: 8.7, Lng: 6.2})
	wantRebuilds("check-in to another cell", r0, 0)
	read("another cell", located)
	wantRebuilds("another cell", r0, 1)
	deliverAll(2)
	read("after the move", located)
	wantRebuilds("after the move", r0, 1)
}
