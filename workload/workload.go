// Package workload generates synthetic social-stream workloads that stand in
// for the proprietary Twitter crawl of the original evaluation (DESIGN.md
// §4). The generator is fully deterministic given a seed and reproduces the
// statistical properties the algorithms are sensitive to:
//
//   - power-law follower distribution (preferential attachment),
//   - Zipf-skewed term usage within latent topics,
//   - per-user topic interests that drive both posting behaviour and the
//     ground-truth interest labels (the oracle),
//   - spatial clustering of users around district centres,
//   - a diurnal posting-intensity profile (afternoons busier than mornings,
//     which reproduces the paper's slot asymmetry claim).
package workload

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"caar/internal/adstore"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// Config parameterizes a workload.
type Config struct {
	Seed int64

	// Social graph.
	Users          int
	AvgFollowees   int     // average out-degree
	PrefAttachBias float64 // ∈ [0,1]: probability a new edge prefers popular targets
	// Homophily ∈ [0,1] is the probability that a follow edge is required to
	// connect users sharing at least one interest. Real follow graphs are
	// interest-assortative; without this, a user's feed would not reflect
	// their own interests and context-based targeting could not work.
	Homophily float64

	// Topic model.
	Topics           int // latent topics
	Vocab            int // total distinct terms
	TermsPerTopic    int // terms in each topic's vocabulary slice
	TermZipfS        float64
	InterestsPerUser int

	// Ads.
	Ads               int
	AdTermCount       int
	GlobalAdFrac      float64 // fraction of ads with no geo targeting
	AdRadiusKm        float64
	SlotTargetingFrac float64 // fraction of ads targeting a single slot

	// Geography.
	Region    geo.Rect
	Districts int // gaussian user clusters
	SpreadDeg float64

	// Stream.
	Messages     int
	TermsPerMsg  int
	CheckInEvery int // one check-in event per this many posts
	Start        time.Time
	MeanGapMs    int // mean inter-arrival gap at baseline intensity

	// Campaign churn and billing (soak-harness extensions). All zero values
	// reproduce the pre-churn workload byte-for-byte: no campaigns, no
	// mid-stream ad arrivals/withdrawals, no impression events.
	Campaigns       int     // budgeted campaigns the ads are spread across (0 = campaign-less)
	CampaignBudget  float64 // budget per campaign (required when Campaigns > 0)
	AdChurnFrac     float64 // ∈ [0,1]: fraction of ads held back at load and added mid-stream
	AdRemoveFrac    float64 // ∈ [0,1]: fraction of initially-loaded ads withdrawn mid-stream
	ImpressionEvery int     // one billable impression event per this many posts (0 = none)

	// Celebrity tail: the first Celebrities users become high-activity
	// accounts followed by a CelebrityFollowFrac share of the whole user
	// base, producing the extreme fan-out bursts a kill mid-delivery must
	// survive.
	Celebrities         int
	CelebrityFollowFrac float64 // ∈ [0,1]

	// RenderText, when set, attaches deterministic token text to every post
	// event and generated ad (Event.Text, Workload.AdText) so a harness can
	// drive the real HTTP text pipeline instead of injecting vectors.
	RenderText bool
}

// DefaultConfig returns a laptop-scale workload matching the evaluation's
// default operating point.
func DefaultConfig() Config {
	return Config{
		Seed:              1,
		Users:             2000,
		AvgFollowees:      12,
		PrefAttachBias:    0.7,
		Homophily:         0.8,
		Topics:            50,
		Vocab:             8000,
		TermsPerTopic:     60,
		TermZipfS:         1.2,
		InterestsPerUser:  3,
		Ads:               10000,
		AdTermCount:       6,
		GlobalAdFrac:      0.3,
		AdRadiusKm:        40,
		SlotTargetingFrac: 0.25,
		Region:            geo.NewRect(geo.Point{Lat: 0, Lng: 0}, geo.Point{Lat: 4, Lng: 4}),
		Districts:         12,
		SpreadDeg:         0.15,
		Messages:          20000,
		TermsPerMsg:       8,
		CheckInEvery:      10,
		Start:             time.Date(2026, 7, 6, 5, 0, 0, 0, time.UTC),
		MeanGapMs:         400,
	}
}

// Validate rejects configurations the generator cannot honour.
func (c Config) Validate() error {
	switch {
	case c.Users < 2:
		return fmt.Errorf("workload: need ≥ 2 users, got %d", c.Users)
	case c.Topics < 1:
		return fmt.Errorf("workload: need ≥ 1 topic, got %d", c.Topics)
	case c.Vocab < c.TermsPerTopic:
		return fmt.Errorf("workload: vocab %d smaller than topic size %d", c.Vocab, c.TermsPerTopic)
	case c.TermsPerTopic < 2:
		return fmt.Errorf("workload: topic size %d too small", c.TermsPerTopic)
	case c.InterestsPerUser < 1 || c.InterestsPerUser > c.Topics:
		return fmt.Errorf("workload: interests per user %d outside [1, %d]", c.InterestsPerUser, c.Topics)
	case c.Ads < 1:
		return fmt.Errorf("workload: need ≥ 1 ad, got %d", c.Ads)
	case c.AdTermCount < 1 || c.AdTermCount > c.TermsPerTopic:
		return fmt.Errorf("workload: ad term count %d outside [1, %d]", c.AdTermCount, c.TermsPerTopic)
	case !c.Region.Valid():
		return fmt.Errorf("workload: invalid region %+v", c.Region)
	case c.Districts < 1:
		return fmt.Errorf("workload: need ≥ 1 district")
	case c.Messages < 0:
		return fmt.Errorf("workload: negative message count")
	case c.TermsPerMsg < 1:
		return fmt.Errorf("workload: terms per message %d < 1", c.TermsPerMsg)
	case c.MeanGapMs < 1:
		return fmt.Errorf("workload: mean gap %d ms < 1", c.MeanGapMs)
	case c.Campaigns < 0:
		return fmt.Errorf("workload: negative campaign count")
	case c.Campaigns > 0 && c.CampaignBudget <= 0:
		return fmt.Errorf("workload: %d campaigns need a positive budget, got %g", c.Campaigns, c.CampaignBudget)
	case c.AdChurnFrac < 0 || c.AdChurnFrac > 1:
		return fmt.Errorf("workload: ad churn fraction %g outside [0,1]", c.AdChurnFrac)
	case c.AdRemoveFrac < 0 || c.AdRemoveFrac > 1:
		return fmt.Errorf("workload: ad remove fraction %g outside [0,1]", c.AdRemoveFrac)
	case c.ImpressionEvery < 0:
		return fmt.Errorf("workload: negative impression interval")
	case c.Celebrities < 0 || c.Celebrities > c.Users:
		return fmt.Errorf("workload: celebrity count %d outside [0, %d]", c.Celebrities, c.Users)
	case c.CelebrityFollowFrac < 0 || c.CelebrityFollowFrac > 1:
		return fmt.Errorf("workload: celebrity follow fraction %g outside [0,1]", c.CelebrityFollowFrac)
	}
	return nil
}

// User is one generated user profile.
type User struct {
	ID        feed.UserID
	Interests []int // latent topic indexes, the oracle's label source
	Home      geo.Point
	District  int     // index into Workload.DistrictCenters of the home cluster
	Activity  float64 // relative posting propensity
}

// EventKind discriminates stream events.
type EventKind uint8

// Stream event kinds.
const (
	EventPost EventKind = iota
	EventCheckIn
	// EventAddAd introduces a held-back ad mid-stream (campaign churn):
	// Event.Ad names an entry of Workload.Ads that is NOT part of the
	// initial load (Workload.LateAds).
	EventAddAd
	// EventRemoveAd withdraws a live ad mid-stream; Event.Ad names it.
	EventRemoveAd
	// EventImpression bills one impression of a live ad (Event.Ad) against
	// its campaign budget.
	EventImpression
)

// Event is one timestamped stream event.
type Event struct {
	Kind EventKind
	Time time.Time
	User feed.UserID
	Msg  feed.Message // valid when Kind == EventPost
	Loc  geo.Point    // valid when Kind == EventCheckIn
	// Ad names the subject of add/remove/impression events.
	Ad adstore.AdID
	// Text is the rendered token form of a post, set only when
	// Config.RenderText — what a harness feeds the HTTP text pipeline.
	Text string
	// Topic is the latent topic the post was generated from (oracle
	// bookkeeping; -1 for non-post events).
	Topic int
}

// CampaignSpec is one generated advertiser budget. The flight window opens
// well before the stream starts so pacing has released most of the budget by
// the time the workload replays — a double-applied journal therefore shows
// up as real over-spend rather than being masked by the pacing cap.
type CampaignSpec struct {
	Name   string
	Budget float64
	Start  time.Time
	End    time.Time
}

// Workload is a fully generated benchmark input.
type Workload struct {
	Cfg    Config
	Users  []User
	Graph  *feed.Graph
	Ads    []*adstore.Ad
	Events []Event

	// DistrictCenters are the gaussian cluster centres users were placed
	// around; User.District indexes into this slice.
	DistrictCenters []geo.Point

	// AdTopic maps each ad to the latent topic its keywords were drawn
	// from — the oracle's link between ads and user interests.
	AdTopic map[adstore.AdID]int

	// Campaigns are the generated advertiser budgets (empty unless
	// Config.Campaigns > 0); Ad.Campaign references them by name.
	Campaigns []CampaignSpec

	// LateAds marks ads that are NOT part of the initial load: they arrive
	// mid-stream via EventAddAd (empty unless Config.AdChurnFrac > 0).
	LateAds map[adstore.AdID]bool

	// AdText is the rendered token text per ad, set only when
	// Config.RenderText.
	AdText map[adstore.AdID]string

	topicTerms [][]textproc.TermID
	adIndex    map[adstore.AdID]int // position in Ads
}

// InitialAds returns the ads present at load time, i.e. Ads minus LateAds,
// in generation order.
func (w *Workload) InitialAds() []*adstore.Ad {
	out := make([]*adstore.Ad, 0, len(w.Ads)-len(w.LateAds))
	for _, a := range w.Ads {
		if !w.LateAds[a.ID] {
			out = append(out, a)
		}
	}
	return out
}

// AdByID returns the generated ad with the given ID, or nil.
func (w *Workload) AdByID(id adstore.AdID) *adstore.Ad {
	i, ok := w.adIndex[id]
	if !ok {
		return nil
	}
	return w.Ads[i]
}

// Generate builds a workload. The same Config (including Seed) always yields
// the same workload.
func Generate(cfg Config) (*Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{Cfg: cfg, AdTopic: make(map[adstore.AdID]int, cfg.Ads)}
	w.genTopics(rng)
	w.genUsers(rng)
	w.genGraph(rng)
	w.genAds(rng)
	w.genEvents(rng)
	return w, nil
}

// genTopics carves the vocabulary into overlapping topic slices.
func (w *Workload) genTopics(rng *rand.Rand) {
	c := w.Cfg
	w.topicTerms = make([][]textproc.TermID, c.Topics)
	for k := range w.topicTerms {
		terms := make([]textproc.TermID, c.TermsPerTopic)
		// Each topic draws a contiguous-ish slice plus random spill, giving
		// partial overlap between topics (shared vocabulary is what makes
		// delta lists non-trivial).
		start := rng.Intn(c.Vocab)
		for i := range terms {
			if rng.Float64() < 0.8 {
				terms[i] = textproc.TermID((start + i) % c.Vocab)
			} else {
				terms[i] = textproc.TermID(rng.Intn(c.Vocab))
			}
		}
		w.topicTerms[k] = terms
	}
}

func (w *Workload) genUsers(rng *rand.Rand) {
	c := w.Cfg
	centers := make([]geo.Point, c.Districts)
	for i := range centers {
		centers[i] = geo.Point{
			Lat: c.Region.MinLat + rng.Float64()*(c.Region.MaxLat-c.Region.MinLat),
			Lng: c.Region.MinLng + rng.Float64()*(c.Region.MaxLng-c.Region.MinLng),
		}
	}
	w.DistrictCenters = centers
	w.Users = make([]User, c.Users)
	for i := range w.Users {
		interests := rng.Perm(c.Topics)[:c.InterestsPerUser]
		district := rng.Intn(len(centers))
		ctr := centers[district]
		home := geo.Point{
			Lat: clamp(ctr.Lat+rng.NormFloat64()*c.SpreadDeg, c.Region.MinLat, c.Region.MaxLat),
			Lng: clamp(ctr.Lng+rng.NormFloat64()*c.SpreadDeg, c.Region.MinLng, c.Region.MaxLng),
		}
		w.Users[i] = User{
			ID:        feed.UserID(i),
			Interests: interests,
			Home:      home,
			District:  district,
			Activity:  0.2 + rng.ExpFloat64(), // heavy-ish tail
		}
	}
	// Celebrity tail: the first Celebrities users post an order of magnitude
	// more than the organic heavy tail, so their (huge, see genGraph)
	// follower sets are fanned out to constantly.
	for i := 0; i < c.Celebrities && i < len(w.Users); i++ {
		w.Users[i].Activity *= 25
	}
}

// genGraph wires a preferential-attachment follower graph: popular accounts
// accumulate followers, yielding the power-law fan-out the fan-out-sharing
// optimization targets.
func (w *Workload) genGraph(rng *rand.Rand) {
	c := w.Cfg
	g := feed.NewGraph()
	// edgeTargets samples proportional to in-degree+1 via a growing list of
	// endpoint repetitions (the classic Barabási–Albert trick).
	endpoints := make([]feed.UserID, 0, c.Users*c.AvgFollowees)
	sharesInterest := func(a, b feed.UserID) bool {
		for _, x := range w.Users[int(a)].Interests {
			for _, y := range w.Users[int(b)].Interests {
				if x == y {
					return true
				}
			}
		}
		return false
	}
	for i := 0; i < c.Users; i++ {
		follower := feed.UserID(i)
		for e := 0; e < c.AvgFollowees; e++ {
			wantShared := rng.Float64() < c.Homophily
			var target feed.UserID
			found := false
			// Bounded resampling: prefer popular and (when required)
			// interest-sharing targets, falling back to whatever the last
			// draw produced so degree stays near the configured average.
			for attempt := 0; attempt < 16; attempt++ {
				if len(endpoints) > 0 && rng.Float64() < c.PrefAttachBias {
					target = endpoints[rng.Intn(len(endpoints))]
				} else {
					target = feed.UserID(rng.Intn(c.Users))
				}
				if target == follower {
					continue
				}
				if wantShared && !sharesInterest(follower, target) {
					continue
				}
				found = true
				break
			}
			if !found {
				continue
			}
			if err := g.Follow(follower, target); err != nil {
				continue // duplicate edge: skip
			}
			endpoints = append(endpoints, target)
		}
	}
	// Celebrity fan-in: each celebrity is followed by a CelebrityFollowFrac
	// share of the whole user base, regardless of interests — the extreme
	// fan-out case the delivery path must survive a kill in the middle of.
	for ci := 0; ci < c.Celebrities && ci < len(w.Users); ci++ {
		celeb := w.Users[ci].ID
		for i := 0; i < c.Users; i++ {
			follower := feed.UserID(i)
			if follower == celeb || rng.Float64() >= c.CelebrityFollowFrac {
				continue
			}
			_ = g.Follow(follower, celeb) // duplicate edge: already a fan
		}
	}
	w.Graph = g
}

func (w *Workload) genAds(rng *rand.Rand) {
	c := w.Cfg
	// Advertiser budgets: flight opened 30 days before the stream so pacing
	// has released ~97% of each budget at replay time (see CampaignSpec).
	if c.Campaigns > 0 {
		w.Campaigns = make([]CampaignSpec, c.Campaigns)
		for k := range w.Campaigns {
			w.Campaigns[k] = CampaignSpec{
				Name:   fmt.Sprintf("camp-%03d", k),
				Budget: c.CampaignBudget,
				Start:  c.Start.Add(-30 * 24 * time.Hour),
				End:    c.Start.Add(48 * time.Hour),
			}
		}
	}
	w.Ads = make([]*adstore.Ad, 0, c.Ads)
	w.adIndex = make(map[adstore.AdID]int, c.Ads)
	if c.RenderText {
		w.AdText = make(map[adstore.AdID]string, c.Ads)
	}
	for i := 0; i < c.Ads; i++ {
		topic := rng.Intn(c.Topics)
		terms := w.sampleTerms(rng, topic, c.AdTermCount)
		a := &adstore.Ad{
			ID:    adstore.AdID(i + 1),
			Vec:   vecFromTerms(terms),
			Slots: timeslot.AllSlots,
			Bid:   0.05 + 0.95*rng.Float64(),
		}
		if c.Campaigns > 0 {
			a.Campaign = w.Campaigns[i%c.Campaigns].Name
		}
		if rng.Float64() < c.SlotTargetingFrac {
			a.Slots = timeslot.NewSet(timeslot.Slot(rng.Intn(timeslot.NumSlots)))
		}
		if rng.Float64() < c.GlobalAdFrac {
			a.Global = true
		} else {
			home := w.Users[rng.Intn(len(w.Users))].Home
			a.Target = geo.Circle{Center: home, RadiusKm: c.AdRadiusKm * (0.5 + rng.Float64())}
		}
		w.adIndex[a.ID] = len(w.Ads)
		w.Ads = append(w.Ads, a)
		w.AdTopic[a.ID] = topic
		if c.RenderText {
			w.AdText[a.ID] = textFromTerms(terms)
		}
	}
	// Churn: the last AdChurnFrac of the ads are held back from the initial
	// load and arrive mid-stream (genEvents schedules the EventAddAd).
	nLate := int(float64(c.Ads) * c.AdChurnFrac)
	w.LateAds = make(map[adstore.AdID]bool, nLate)
	for _, a := range w.Ads[c.Ads-nLate:] {
		w.LateAds[a.ID] = true
	}
}

// sampleTerms draws n terms from a topic's Zipf distribution, in draw order.
func (w *Workload) sampleTerms(rng *rand.Rand, topic, n int) []textproc.TermID {
	terms := w.topicTerms[topic]
	z := rand.NewZipf(rng, w.Cfg.TermZipfS, 1, uint64(len(terms)-1))
	out := make([]textproc.TermID, n)
	for i := range out {
		out[i] = terms[z.Uint64()]
	}
	return out
}

// vecFromTerms builds the L2-normalized TF vector over a term draw.
func vecFromTerms(terms []textproc.TermID) textproc.SparseVector {
	return textproc.Bag(terms, func(textproc.TermID) float64 { return 1 })
}

// textFromTerms renders a term draw as deterministic tokens ("t0042 …") that
// survive the real tokenizer (alphanumeric, ≥ 2 runes, not pure digits), so
// text-driven replay indexes the same term multiset the vector carries.
func textFromTerms(terms []textproc.TermID) string {
	var b strings.Builder
	for i, t := range terms {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "t%04d", t)
	}
	return b.String()
}

// intensity is the diurnal posting-rate multiplier: afternoons are the
// busiest, mornings moderate, nights quiet. Higher multiplier → shorter
// inter-arrival gaps.
func intensity(t time.Time) float64 {
	switch timeslot.Of(t) {
	case timeslot.Morning:
		return 1.0
	case timeslot.Afternoon:
		return 1.8
	default:
		return 0.4
	}
}

func (w *Workload) genEvents(rng *rand.Rand) {
	c := w.Cfg
	// Author sampling proportional to activity.
	cum := make([]float64, len(w.Users))
	total := 0.0
	for i, u := range w.Users {
		total += u.Activity
		cum[i] = total
	}
	pickAuthor := func() int {
		x := rng.Float64() * total
		lo, hi := 0, len(cum)-1
		for lo < hi {
			mid := (lo + hi) / 2
			if cum[mid] < x {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		return lo
	}

	// Churn schedule: held-back ads arrive evenly across the stream; a
	// deterministic sample of the initial ads is withdrawn, also evenly
	// spaced. Keyed by post index so the schedule rides the diurnal clock.
	addsAt := make(map[int][]adstore.AdID)
	if n := len(w.LateAds); n > 0 {
		late := w.Ads[c.Ads-n:]
		for k, a := range late {
			at := (k + 1) * c.Messages / (n + 1)
			addsAt[at] = append(addsAt[at], a.ID)
		}
	}
	removesAt := make(map[int][]adstore.AdID)
	nInit := c.Ads - len(w.LateAds)
	if nRemove := int(float64(nInit) * c.AdRemoveFrac); nRemove > 0 {
		victims := rng.Perm(nInit)[:nRemove]
		for k, vi := range victims {
			at := (k + 1) * c.Messages / (nRemove + 1)
			removesAt[at] = append(removesAt[at], w.Ads[vi].ID)
		}
	}
	// live tracks ads currently addressable by impressions.
	live := make([]adstore.AdID, 0, c.Ads)
	for _, a := range w.InitialAds() {
		live = append(live, a.ID)
	}

	now := c.Start
	w.Events = make([]Event, 0, c.Messages+c.Messages/max(1, c.CheckInEvery))
	var msgID feed.MessageID
	for i := 0; i < c.Messages; i++ {
		gap := time.Duration(float64(c.MeanGapMs)*rng.ExpFloat64()/intensity(now)) * time.Millisecond
		now = now.Add(gap)

		for _, id := range addsAt[i] {
			w.Events = append(w.Events, Event{Kind: EventAddAd, Time: now, Ad: id, Topic: -1})
			live = append(live, id)
		}
		for _, id := range removesAt[i] {
			w.Events = append(w.Events, Event{Kind: EventRemoveAd, Time: now, Ad: id, Topic: -1})
			for li, lid := range live {
				if lid == id {
					live = append(live[:li], live[li+1:]...)
					break
				}
			}
		}

		if c.CheckInEvery > 0 && i%c.CheckInEvery == 0 {
			ui := rng.Intn(len(w.Users))
			u := w.Users[ui]
			loc := geo.Point{
				Lat: clamp(u.Home.Lat+rng.NormFloat64()*c.SpreadDeg/3, c.Region.MinLat, c.Region.MaxLat),
				Lng: clamp(u.Home.Lng+rng.NormFloat64()*c.SpreadDeg/3, c.Region.MinLng, c.Region.MaxLng),
			}
			w.Events = append(w.Events, Event{
				Kind: EventCheckIn, Time: now, User: u.ID, Loc: loc, Topic: -1,
			})
		}

		ai := pickAuthor()
		author := w.Users[ai]
		topic := author.Interests[rng.Intn(len(author.Interests))]
		msgID++
		terms := w.sampleTerms(rng, topic, c.TermsPerMsg)
		msg := feed.Message{
			ID:     msgID,
			Author: author.ID,
			Time:   now,
			Vec:    vecFromTerms(terms),
		}
		ev := Event{
			Kind: EventPost, Time: now, User: author.ID, Msg: msg, Topic: topic,
		}
		if c.RenderText {
			ev.Text = textFromTerms(terms)
		}
		w.Events = append(w.Events, ev)

		if c.ImpressionEvery > 0 && i%c.ImpressionEvery == 0 && len(live) > 0 {
			id := live[rng.Intn(len(live))]
			w.Events = append(w.Events, Event{Kind: EventImpression, Time: now, Ad: id, Topic: -1})
		}
	}
}

// CloneAds returns copies of the generated ads, so that multiple engine
// instances can own private stores without sharing pointers. The copies share
// each ad's term vector, which is never modified.
func (w *Workload) CloneAds() []*adstore.Ad {
	out := make([]*adstore.Ad, len(w.Ads))
	for i, a := range w.Ads {
		cp := *a
		out[i] = &cp
	}
	return out
}

// TopicURI renders a latent topic as a DBpedia-style URI for the TFCA
// pipeline.
func TopicURI(topic int) string {
	return fmt.Sprintf("topic://%03d", topic)
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
