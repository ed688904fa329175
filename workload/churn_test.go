package workload

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/textproc"
)

// churnConfig is smallConfig with every soak extension switched on.
func churnConfig() Config {
	c := smallConfig()
	c.Campaigns = 5
	c.CampaignBudget = 50
	c.AdChurnFrac = 0.1
	c.AdRemoveFrac = 0.05
	c.ImpressionEvery = 4
	c.Celebrities = 3
	c.CelebrityFollowFrac = 0.5
	c.RenderText = true
	return c
}

// TestChurnDeterministicByteIdentical is the soak harness's foundation: the
// same seed must yield the same workload, or a crash-recovery diff against
// the ledger means nothing. The next seed must yield another, or the
// equality proves nothing.
func TestChurnDeterministicByteIdentical(t *testing.T) {
	cfg := churnConfig()
	w := generate(t, cfg)
	if part := firstDifference(w, generate(t, cfg)); part != "" {
		t.Fatalf("same seed produced different %s", part)
	}
	cfg.Seed++
	if firstDifference(w, generate(t, cfg)) == "" {
		t.Fatal("seed+1 produced the same workload")
	}
}

func generate(t *testing.T, cfg Config) *Workload {
	t.Helper()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// firstDifference names the first part of the generated workload in which a
// and b differ, or returns "" when they are deeply equal.
func firstDifference(a, b *Workload) string {
	followers := func(w *Workload) [][]feed.UserID {
		out := make([][]feed.UserID, len(w.Users))
		for i, u := range w.Users {
			out[i] = w.Graph.Followers(u.ID)
		}
		return out
	}
	for _, part := range []struct {
		name string
		a, b any
	}{
		{"users", a.Users, b.Users},
		{"followers", followers(a), followers(b)},
		{"ads", a.Ads, b.Ads},
		{"ad topics", a.AdTopic, b.AdTopic},
		{"ad texts", a.AdText, b.AdText},
		{"late ads", a.LateAds, b.LateAds},
		{"campaigns", a.Campaigns, b.Campaigns},
		{"events", a.Events, b.Events},
	} {
		if !reflect.DeepEqual(part.a, part.b) {
			return part.name
		}
	}
	return ""
}

func TestChurnEventsConsistent(t *testing.T) {
	cfg := churnConfig()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}

	wantLate := int(float64(cfg.Ads) * cfg.AdChurnFrac)
	if len(w.LateAds) != wantLate {
		t.Fatalf("late ads = %d, want %d", len(w.LateAds), wantLate)
	}
	if got := len(w.InitialAds()); got != cfg.Ads-wantLate {
		t.Fatalf("initial ads = %d, want %d", got, cfg.Ads-wantLate)
	}
	if len(w.Campaigns) != cfg.Campaigns {
		t.Fatalf("campaigns = %d, want %d", len(w.Campaigns), cfg.Campaigns)
	}
	names := map[string]bool{}
	for _, c := range w.Campaigns {
		if c.Budget != cfg.CampaignBudget || !c.Start.Before(cfg.Start) {
			t.Fatalf("bad campaign spec %+v", c)
		}
		names[c.Name] = true
	}
	for _, a := range w.Ads {
		if !names[a.Campaign] {
			t.Fatalf("ad %d references unknown campaign %q", a.ID, a.Campaign)
		}
		if w.AdText[a.ID] == "" {
			t.Fatalf("ad %d has no rendered text", a.ID)
		}
		if w.AdByID(a.ID) != a {
			t.Fatalf("AdByID(%d) mismatch", a.ID)
		}
	}

	// Replay the churn events and check referential consistency: adds only
	// introduce late ads, removals and impressions only touch live ads.
	live := map[adstore.AdID]bool{}
	for _, a := range w.InitialAds() {
		live[a.ID] = true
	}
	adds, removes, impressions := 0, 0, 0
	for i, ev := range w.Events {
		switch ev.Kind {
		case EventAddAd:
			adds++
			if !w.LateAds[ev.Ad] {
				t.Fatalf("event %d adds non-late ad %d", i, ev.Ad)
			}
			if live[ev.Ad] {
				t.Fatalf("event %d adds already-live ad %d", i, ev.Ad)
			}
			live[ev.Ad] = true
		case EventRemoveAd:
			removes++
			if !live[ev.Ad] {
				t.Fatalf("event %d removes non-live ad %d", i, ev.Ad)
			}
			delete(live, ev.Ad)
		case EventImpression:
			impressions++
			if !live[ev.Ad] {
				t.Fatalf("event %d bills impression on non-live ad %d", i, ev.Ad)
			}
		case EventPost:
			if ev.Text == "" {
				t.Fatalf("event %d: post without rendered text", i)
			}
		}
	}
	if adds != wantLate {
		t.Fatalf("add events = %d, want %d", adds, wantLate)
	}
	wantRemoves := int(float64(cfg.Ads-wantLate) * cfg.AdRemoveFrac)
	if removes != wantRemoves {
		t.Fatalf("remove events = %d, want %d", removes, wantRemoves)
	}
	if impressions == 0 {
		t.Fatal("no impression events")
	}
}

// TestRenderedTextSurvivesTokenizer: the whole point of RenderText is driving
// the real HTTP text pipeline, so every rendered token must come back out of
// it as a term of its own, unchanged (alphanumeric words are kept and not
// stemmed; pure digits would be dropped).
func TestRenderedTextSurvivesTokenizer(t *testing.T) {
	w, err := Generate(churnConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := textproc.NewPipeline()
	for _, ev := range w.Events[:200] {
		if ev.Kind != EventPost {
			continue
		}
		fields := strings.Fields(ev.Text)
		if len(fields) != w.Cfg.TermsPerMsg {
			t.Fatalf("rendered post text %q has %d words, want %d", ev.Text, len(fields), w.Cfg.TermsPerMsg)
		}
		var terms []string
		for _, term := range p.Vector(ev.Text) {
			terms = append(terms, p.Vocab.Term(term.ID))
		}
		slices.Sort(terms)
		slices.Sort(fields)
		if fields = slices.Compact(fields); !slices.Equal(terms, fields) {
			t.Fatalf("rendered post text %q vectorized to terms %q, want %q", ev.Text, terms, fields)
		}
	}
}

func TestCelebrityFanIn(t *testing.T) {
	cfg := churnConfig()
	w, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < cfg.Celebrities; i++ {
		fans := len(w.Graph.Followers(w.Users[i].ID))
		if fans < cfg.Users/4 {
			t.Fatalf("celebrity %d has only %d followers (want ≥ %d)", i, fans, cfg.Users/4)
		}
	}
}

func TestChurnValidation(t *testing.T) {
	cases := []func(*Config){
		func(c *Config) { c.Campaigns = -1 },
		func(c *Config) { c.Campaigns = 3; c.CampaignBudget = 0 },
		func(c *Config) { c.AdChurnFrac = 1.5 },
		func(c *Config) { c.AdRemoveFrac = -0.1 },
		func(c *Config) { c.ImpressionEvery = -1 },
		func(c *Config) { c.Celebrities = c.Users + 1 },
		func(c *Config) { c.CelebrityFollowFrac = 2 },
	}
	for i, mut := range cases {
		cfg := smallConfig()
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}
