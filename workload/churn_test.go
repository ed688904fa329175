package workload

import (
	"bytes"
	"testing"

	"caar/internal/adstore"
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
// same seed must yield byte-identical traces and identical ad sets, or a
// crash-recovery diff against the ledger means nothing.
func TestChurnDeterministicByteIdentical(t *testing.T) {
	cfg := churnConfig()
	var b1, b2 bytes.Buffer
	for i, buf := range []*bytes.Buffer{&b1, &b2} {
		w, err := Generate(cfg)
		if err != nil {
			t.Fatalf("generate %d: %v", i, err)
		}
		if err := w.ExportTrace(buf); err != nil {
			t.Fatalf("export %d: %v", i, err)
		}
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("same seed produced different traces (%d vs %d bytes)", b1.Len(), b2.Len())
	}
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

// TestChurnTraceRoundTrip: export with all extensions on, load back, and the
// churn bookkeeping (campaigns, late set, text, events) must survive.
func TestChurnTraceRoundTrip(t *testing.T) {
	w, err := Generate(churnConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.ExportTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Campaigns) != len(w.Campaigns) || got.Campaigns[0] != w.Campaigns[0] {
		t.Fatalf("campaigns did not round-trip: %+v", got.Campaigns)
	}
	if len(got.LateAds) != len(w.LateAds) {
		t.Fatalf("late ads did not round-trip: %d vs %d", len(got.LateAds), len(w.LateAds))
	}
	if len(got.Events) != len(w.Events) {
		t.Fatalf("events did not round-trip: %d vs %d", len(got.Events), len(w.Events))
	}
	for i, ev := range w.Events {
		g := got.Events[i]
		if g.Kind != ev.Kind || g.Ad != ev.Ad || g.Text != ev.Text {
			t.Fatalf("event %d did not round-trip: %+v vs %+v", i, g, ev)
		}
	}
	for id, text := range w.AdText {
		if got.AdText[id] != text {
			t.Fatalf("ad %d text did not round-trip", id)
		}
		if got.AdByID(id).Campaign != w.AdByID(id).Campaign {
			t.Fatalf("ad %d campaign did not round-trip", id)
		}
	}
}

// TestRenderedTextSurvivesTokenizer: the whole point of RenderText is driving
// the real HTTP text pipeline, so every rendered token must come back out of
// the default tokenizer (alphanumeric words are kept; pure digits are not).
func TestRenderedTextSurvivesTokenizer(t *testing.T) {
	w, err := Generate(churnConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range w.Events[:200] {
		if ev.Kind != EventPost {
			continue
		}
		toks := textproc.Tokenize(ev.Text)
		if len(toks) != w.Cfg.TermsPerMsg {
			t.Fatalf("rendered post text %q tokenized to %d words, want %d", ev.Text, len(toks), w.Cfg.TermsPerMsg)
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
