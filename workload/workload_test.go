package workload

import (
	"testing"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/timeslot"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Users = 200
	c.Ads = 300
	c.Messages = 1000
	c.Topics = 10
	c.Vocab = 500
	c.TermsPerTopic = 40
	return c
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := smallConfig()
	if part := firstDifference(generate(t, cfg), generate(t, cfg)); part != "" {
		t.Fatalf("same seed produced different %s", part)
	}
}

func TestGenerateValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Users = 1 },
		func(c *Config) { c.Topics = 0 },
		func(c *Config) { c.Vocab = 10; c.TermsPerTopic = 40 },
		func(c *Config) { c.InterestsPerUser = 0 },
		func(c *Config) { c.InterestsPerUser = c.Topics + 1 },
		func(c *Config) { c.Ads = 0 },
		func(c *Config) { c.AdTermCount = 0 },
		func(c *Config) { c.Districts = 0 },
		func(c *Config) { c.TermsPerMsg = 0 },
		func(c *Config) { c.MeanGapMs = 0 },
	}
	for i, mut := range cases {
		cfg := smallConfig()
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestGeneratedAdsAreValid(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Ads) != 300 {
		t.Fatalf("ads = %d", len(w.Ads))
	}
	store := adstore.NewStore()
	for _, a := range w.Ads {
		if err := a.Validate(); err != nil {
			t.Fatalf("generated ad invalid: %v", err)
		}
		if err := store.Add(a); err != nil {
			t.Fatalf("store rejected generated ad: %v", err)
		}
		if _, ok := w.AdTopic[a.ID]; !ok {
			t.Fatalf("ad %d has no topic label", a.ID)
		}
	}
}

func TestGeneratedEventsOrderedAndInRegion(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	posts, checkins := 0, 0
	for i, e := range w.Events {
		if i > 0 && e.Time.Before(w.Events[i-1].Time) {
			t.Fatalf("event %d out of order", i)
		}
		switch e.Kind {
		case EventPost:
			posts++
			if len(e.Msg.Vec) == 0 {
				t.Fatalf("post %d has empty vector", i)
			}
			if e.Msg.Author != e.User {
				t.Fatalf("post %d author mismatch", i)
			}
			if e.Topic < 0 || e.Topic >= w.Cfg.Topics {
				t.Fatalf("post %d topic %d out of range", i, e.Topic)
			}
		case EventCheckIn:
			checkins++
			if !w.Cfg.Region.Contains(e.Loc) {
				t.Fatalf("check-in %d outside region: %v", i, e.Loc)
			}
		}
	}
	if posts != w.Cfg.Messages {
		t.Fatalf("posts = %d, want %d", posts, w.Cfg.Messages)
	}
	if checkins == 0 {
		t.Fatal("no check-ins generated")
	}
}

func TestGraphIsSkewed(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, maxFan := w.Graph.MaxFanout()
	avg := float64(w.Graph.Edges()) / float64(w.Cfg.Users)
	if float64(maxFan) < 3*avg {
		t.Fatalf("graph not skewed: max fan-out %d vs average %.1f", maxFan, avg)
	}
	if len(w.Users) != w.Cfg.Users {
		t.Fatalf("users = %d", len(w.Users))
	}
}

func TestPostsReflectInterests(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range w.Events {
		if e.Kind != EventPost {
			continue
		}
		u := w.Users[int(e.User)]
		found := false
		for _, topic := range u.Interests {
			if topic == e.Topic {
				found = true
			}
		}
		if !found {
			t.Fatalf("event %d: user %d posted about non-interest topic %d", i, e.User, e.Topic)
		}
	}
}

func TestOracleConsistentWithGeneration(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	o := NewOracle(w)
	for _, a := range w.Ads[:50] {
		topic := w.AdTopic[a.ID]
		for _, sl := range []timeslot.Slot{timeslot.Morning, timeslot.Afternoon, timeslot.Night} {
			users := o.InterestedUsers(a.ID, sl)
			if !a.Slots.Contains(sl) {
				if users != nil {
					t.Fatalf("ad %d: users returned for untargeted slot", a.ID)
				}
				continue
			}
			for _, u := range users {
				prof := w.Users[int(u)]
				ok := false
				for _, ti := range prof.Interests {
					if ti == topic {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("oracle labeled uninterested user %d for ad %d", u, a.ID)
				}
				if !a.Global && !a.Target.Contains(prof.Home) {
					t.Fatalf("oracle labeled out-of-range user %d for geo ad %d", u, a.ID)
				}
			}
		}
	}
	if o.InterestedUsers(99999, timeslot.Morning) != nil {
		t.Fatal("unknown ad should yield nil")
	}
}

func TestCloneAdsIndependent(t *testing.T) {
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	clones := w.CloneAds()
	if len(clones) != len(w.Ads) {
		t.Fatal("clone count mismatch")
	}
	// The term vector is immutable, so the copies share it; the rest is theirs.
	clones[0].Bid = 999
	if clones[0] == w.Ads[0] || w.Ads[0].Bid == 999 {
		t.Fatal("clone shares its record with the original")
	}
}

func TestAfternoonBusierThanMorning(t *testing.T) {
	cfg := smallConfig()
	cfg.Messages = 5000
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[timeslot.Slot]int{}
	for _, e := range w.Events {
		if e.Kind == EventPost {
			counts[timeslot.Of(e.Time)]++
		}
	}
	// The diurnal intensity profile must make the afternoon slot denser per
	// wall-clock hour. Compare rates only when the stream spans both slots.
	if counts[timeslot.Morning] > 0 && counts[timeslot.Afternoon] > 0 {
		// Afternoon rate multiplier is 1.8× morning, so with spans of 8 h
		// and 7 h the afternoon count should clearly exceed when reached.
		if counts[timeslot.Afternoon] < counts[timeslot.Morning]/8 {
			t.Fatalf("afternoon unexpectedly sparse: %v", counts)
		}
	}
	if counts[timeslot.Morning] == 0 {
		t.Fatalf("stream never reached morning: %v", counts)
	}
}

func TestTopicURI(t *testing.T) {
	if TopicURI(7) != "topic://007" {
		t.Fatalf("TopicURI = %q", TopicURI(7))
	}
}

func TestFanoutDelivery(t *testing.T) {
	// Smoke-check the graph integrates with feed delivery semantics.
	w, err := Generate(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var post *Event
	for i := range w.Events {
		if w.Events[i].Kind == EventPost {
			post = &w.Events[i]
			break
		}
	}
	if post == nil {
		t.Fatal("no posts")
	}
	followers := w.Graph.Followers(feed.UserID(post.User))
	for _, f := range followers {
		if f == post.User {
			t.Fatal("author in own follower list")
		}
	}
}
