package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"caar/fca"
	"caar/internal/adstore"
	"caar/internal/core"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/timeslot"
	"caar/workload"
)

func init() {
	register(Experiment{ID: "F6", Title: "Effectiveness: F-score vs threshold α (CAP vs TFCA, two slots)", Run: runF6})
	register(Experiment{ID: "F7", Title: "Mixing-weight sensitivity", Run: runF7})
	register(Experiment{ID: "F10", Title: "Decay half-life sensitivity", Run: runF10})
}

// evalSlots are the two slots the evaluation reports (morning
// [05:00,13:00) and afternoon [13:00,20:00), matching the paper's two
// windows).
var evalSlots = []timeslot.Slot{timeslot.Morning, timeslot.Afternoon}

const snapshotK = 50 // top-K retained per user per slot snapshot

// qualityEnv is one replayed engine run with per-slot prediction snapshots.
type qualityEnv struct {
	w         *workload.Workload
	oracle    *workload.Oracle
	scoring   core.Scoring
	eng       *core.CAP
	snapshots map[timeslot.Slot]map[feed.UserID][]core.Scored
}

// qualityConfig shrinks the workload to TFCA-tractable size and stretches
// the stream across the whole day so both evaluation slots receive traffic.
func qualityConfig(scale float64) workload.Config {
	cfg := scaledConfig(scale)
	if cfg.Users > 150 {
		cfg.Users = 150
	}
	if cfg.Ads > 1000 {
		cfg.Ads = 1000
	}
	cfg.Topics = 20
	cfg.InterestsPerUser = 3
	// Keep posting sparse (~8 posts per user per day): with saturated
	// per-slot topic coverage the morning/afternoon density asymmetry the
	// evaluation reports would be invisible.
	cfg.Messages = cfg.Users * 8
	// Spread the stream over 05:00 → ~20:00 so morning and afternoon both
	// fill up (the diurnal intensity modulates around this mean gap).
	const daySpanMs = 15 * 60 * 60 * 1000
	cfg.MeanGapMs = daySpanMs / cfg.Messages
	if cfg.MeanGapMs < 1 {
		cfg.MeanGapMs = 1
	}
	return cfg
}

// buildQualityEnv replays the workload into a CAP engine, snapshotting every
// user's top-K when the stream crosses a slot boundary (so each slot's
// predictions reflect the context accumulated during that slot).
func buildQualityEnv(cfg workload.Config, scoring core.Scoring) (*qualityEnv, error) {
	w := mustGenerate(cfg)
	eng, err := core.NewCAP(scoring, nil, cfg.Region, 32, 32, core.DefaultCAPOptions())
	if err != nil {
		return nil, err
	}
	env := &qualityEnv{
		w:         w,
		oracle:    workload.NewOracle(w),
		scoring:   scoring,
		eng:       eng,
		snapshots: make(map[timeslot.Slot]map[feed.UserID][]core.Scored),
	}
	d := &driver{eng: eng, w: w, k: 0}
	if err := d.prepare(); err != nil {
		return nil, err
	}

	prevSlot := timeslot.Of(cfg.Start)
	var prevTime time.Time
	snapshot := func(sl timeslot.Slot, at time.Time) error {
		users := make(map[feed.UserID][]core.Scored, len(w.Users))
		for _, u := range w.Users {
			scored, err := eng.TopAds(u.ID, snapshotK, at)
			if err != nil {
				return err
			}
			users[u.ID] = scored
		}
		env.snapshots[sl] = users
		return nil
	}
	for i := range w.Events {
		ev := &w.Events[i]
		if sl := timeslot.Of(ev.Time); sl != prevSlot {
			if !prevTime.IsZero() {
				if err := snapshot(prevSlot, prevTime); err != nil {
					return nil, err
				}
			}
			prevSlot = sl
		}
		prevTime = ev.Time
		switch ev.Kind {
		case workload.EventCheckIn:
			if err := eng.CheckIn(ev.User, ev.Loc, ev.Time); err != nil {
				return nil, err
			}
		case workload.EventPost:
			fanout := append([]feed.UserID{ev.User}, w.Graph.Followers(ev.User)...)
			if err := eng.Deliver(ev.Msg, fanout); err != nil {
				return nil, err
			}
		}
	}
	if !prevTime.IsZero() {
		if err := snapshot(prevSlot, prevTime); err != nil {
			return nil, err
		}
	}
	return env, nil
}

// capPredict returns the users for whom the ad appears in the slot snapshot
// with score ≥ threshold × (the ad's best score in that snapshot). The
// relative threshold makes the [0, 1] sweep meaningful regardless of the
// absolute score scale: 0 keeps every top-K appearance, 1 keeps only the
// best-matched user(s).
func (env *qualityEnv) capPredict(ad adstore.AdID, sl timeslot.Slot, threshold float64) []feed.UserID {
	best := 0.0
	for _, scored := range env.snapshots[sl] {
		for _, s := range scored {
			if s.Ad == ad && s.Score > best {
				best = s.Score
			}
		}
	}
	if best == 0 {
		return nil
	}
	var out []feed.UserID
	for u, scored := range env.snapshots[sl] {
		for _, s := range scored {
			if s.Ad == ad && s.Score >= threshold*best {
				out = append(out, u)
				break
			}
		}
	}
	return out
}

// sampleEvalAds picks geo-targeted ads that have at least one interested
// user in some evaluation slot (ads nobody could ever want tell us nothing
// about ranking quality).
func (env *qualityEnv) sampleEvalAds(n int) []*adstore.Ad {
	var out []*adstore.Ad
	for _, a := range env.w.Ads {
		if a.Global {
			continue
		}
		interested := false
		for _, sl := range evalSlots {
			if len(env.oracle.InterestedUsers(a.ID, sl)) > 0 {
				interested = true
				break
			}
		}
		if interested {
			out = append(out, a)
			if len(out) == n {
				break
			}
		}
	}
	return out
}

// districtOf returns the nearest district centre index to a point.
func (env *qualityEnv) districtOf(p geo.Point) int {
	best, bestD := 0, -1.0
	for i, c := range env.w.DistrictCenters {
		d := c.DistanceKm(p)
		if bestD < 0 || d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func userName(u feed.UserID) string    { return fmt.Sprintf("u%d", u) }
func districtName(d int) string        { return fmt.Sprintf("d%d", d) }
func slotName(sl timeslot.Slot) string { return sl.String() }

// buildTFCAContexts constructs the TFCA pipeline inputs from the same event
// stream: a fuzzy (user × topicURI × slot) context whose degrees simulate
// annotation confidence (true interest signals high, injected spurious
// mentions low — see EXPERIMENTS.md for the channel calibration), and a
// crisp (user × district × slot) check-in context.
func (env *qualityEnv) buildTFCAContexts() (*fca.FuzzyTriContext, *fca.TriContext, error) {
	cfg := env.w.Cfg
	users := make([]string, len(env.w.Users))
	for i := range users {
		users[i] = userName(feed.UserID(i))
	}
	topics := make([]string, cfg.Topics)
	for k := range topics {
		topics[k] = workload.TopicURI(k)
	}
	districts := make([]string, len(env.w.DistrictCenters))
	for i := range districts {
		districts[i] = districtName(i)
	}
	slots := []string{slotName(timeslot.Night), slotName(timeslot.Morning), slotName(timeslot.Afternoon)}

	tweets, err := fca.NewFuzzyTriContext(users, topics, slots)
	if err != nil {
		return nil, nil, err
	}
	checkins, err := fca.NewTriContext(users, districts, slots)
	if err != nil {
		return nil, nil, err
	}

	// Location presence is persistent: a user stays in their home district
	// through every slot unless a check-in moves them (mirroring the
	// engine, where CheckIn state persists until the next check-in).
	for _, u := range env.w.Users {
		for _, sl := range slots {
			if err := checkins.Relate(userName(u.ID), districtName(u.District), sl); err != nil {
				return nil, nil, err
			}
		}
	}

	noise := rand.New(rand.NewSource(cfg.Seed + 9999))
	for i := range env.w.Events {
		ev := &env.w.Events[i]
		sl := slotName(timeslot.Of(ev.Time))
		switch ev.Kind {
		case workload.EventCheckIn:
			if err := checkins.Relate(userName(ev.User), districtName(env.districtOf(ev.Loc)), sl); err != nil {
				return nil, nil, err
			}
		case workload.EventPost:
			// True interest signal: confidence in [0.6, 1.0].
			deg := 0.6 + 0.4*noise.Float64()
			if err := tweets.Set(userName(ev.User), workload.TopicURI(ev.Topic), sl, deg); err != nil {
				return nil, nil, err
			}
			// Spurious annotation: an off-interest topic at confidence
			// below 0.72 (the DBpedia-Spotlight-style disambiguation noise
			// the α-cut exists to remove; see EXPERIMENTS.md on channel
			// calibration).
			if noise.Float64() < 0.5 {
				spurious := noise.Intn(cfg.Topics)
				if err := tweets.Set(userName(ev.User), workload.TopicURI(spurious), sl, 0.72*noise.Float64()); err != nil {
					return nil, nil, err
				}
			}
		}
	}
	return tweets, checkins, nil
}

// evalF runs one micro-averaged F-score evaluation over the sampled ads for
// one slot, with a caller-supplied predictor.
func evalF(oracle *workload.Oracle, ads []*adstore.Ad, sl timeslot.Slot, predict func(*adstore.Ad) []feed.UserID) float64 {
	var agg Retrieval
	for _, a := range ads {
		truth := oracle.InterestedUsers(a.ID, sl)
		if !a.Slots.Contains(sl) {
			continue
		}
		agg.Merge(EvaluateSets(predict(a), truth))
	}
	return agg.FScore()
}

// runF6 sweeps the threshold α and reports the F-score of TFCA (α = fuzzy
// cut) and CAP (α = normalized score threshold), separately for the morning
// and afternoon slots. Claims under test: a mid-range optimum near
// α ∈ [0.65, 0.75] for TFCA, and a higher attainable F-score in the
// afternoon slot (denser stream → richer contexts).
func runF6(r *Runner) error {
	env, err := buildQualityEnv(qualityConfig(r.Scale), defaultScoring(32))
	if err != nil {
		return err
	}
	ads := env.sampleEvalAds(15)
	if len(ads) == 0 {
		return fmt.Errorf("no evaluable ads generated")
	}
	tweets, checkins, err := env.buildTFCAContexts()
	if err != nil {
		return err
	}
	checkinIdx := fca.NewConceptIndex(checkins)

	alphas := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.55, 0.6, 0.65, 0.7, 0.75, 0.8, 0.9, 1.0}
	series := make([]Series, 0, 4)
	for _, sl := range evalSlots {
		capSeries := Series{Name: "CAP-" + sl.String()}
		tfcaSeries := Series{Name: "TFCA-" + sl.String()}
		for _, alpha := range alphas {
			tweetIdx := fca.NewConceptIndex(tweets.AlphaCut(alpha))
			slName := slotName(sl)
			tfcaF := evalF(env.oracle, ads, sl, func(a *adstore.Ad) []feed.UserID {
				recs := fca.RecommendIndexed(checkinIdx, tweetIdx, fca.AdContext{
					Location: districtName(env.districtOf(a.Target.Center)),
					URIs:     []string{workload.TopicURI(env.w.AdTopic[a.ID])},
					Slot:     slName,
				})
				out := make([]feed.UserID, 0, len(recs))
				for _, rec := range recs {
					var id int
					fmt.Sscanf(rec.User, "u%d", &id)
					out = append(out, feed.UserID(id))
				}
				return out
			})
			tfcaSeries.Add(alpha, tfcaF)

			capF := evalF(env.oracle, ads, sl, func(a *adstore.Ad) []feed.UserID {
				return env.capPredict(a.ID, sl, alpha)
			})
			capSeries.Add(alpha, capF)
		}
		series = append(series, tfcaSeries, capSeries)
	}
	r.printf("micro-averaged F-score vs threshold α (%d eval ads)\n%s", len(ads), Table("alpha", series...))
	return nil
}

// runF7 sweeps the text mixing weight: AlphaText ∈ {0 … 1} with the
// remainder split 60/40 between geo and bid. Claim: text-dominant mixing
// maximizes targeting quality; pure bid/geo ranking cannot see interests.
func runF7(r *Runner) error {
	var series Series
	series.Name = "CAP F-score"
	for _, at := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1.0} {
		scoring := defaultScoring(32)
		scoring.AlphaText = at
		scoring.BetaGeo = (1 - at) * 0.6
		scoring.GammaBid = (1 - at) * 0.4
		if at == 1 {
			scoring.BetaGeo, scoring.GammaBid = 0, 0
		}
		env, err := buildQualityEnv(qualityConfig(r.Scale), scoring)
		if err != nil {
			return err
		}
		ads := env.sampleEvalAds(15)
		total, n := 0.0, 0
		for _, sl := range evalSlots {
			f := evalF(env.oracle, ads, sl, func(a *adstore.Ad) []feed.UserID {
				return env.capPredict(a.ID, sl, 0.15)
			})
			total += f
			n++
		}
		series.Add(at, total/float64(n))
	}
	r.printf("F-score vs text mixing weight (threshold 0.15)\n%s", Table("alphaText", series))
	return nil
}

// runF10 sweeps the decay half-life. Claim: very short half-lives forget
// context before it can be exploited; very long ones dilute the current
// context with stale interests; quality saturates at moderate values while
// candidate-buffer footprint stays bounded by the window.
func runF10(r *Runner) error {
	var fSeries, bufSeries Series
	fSeries.Name = "F-score"
	bufSeries.Name = "buf entries/user"
	for _, hl := range []time.Duration{15 * time.Minute, 30 * time.Minute, time.Hour, 2 * time.Hour, 4 * time.Hour, 0} {
		scoring := defaultScoring(32)
		scoring.Decay = timeslot.NewDecay(hl)
		env, err := buildQualityEnv(qualityConfig(r.Scale), scoring)
		if err != nil {
			return err
		}
		ads := env.sampleEvalAds(15)
		total, n := 0.0, 0
		for _, sl := range evalSlots {
			f := evalF(env.oracle, ads, sl, func(a *adstore.Ad) []feed.UserID {
				return env.capPredict(a.ID, sl, 0.15)
			})
			total += f
			n++
		}
		x := hl.Hours()
		if hl == 0 {
			x = 24 // plot "no decay" at the right edge
		}
		fSeries.Add(x, total/float64(n))
		bufSeries.Add(x, float64(env.eng.TotalBufferEntries())/float64(len(env.w.Users)))
	}
	r.printf("F-score and buffer footprint vs decay half-life (hours; 24 = no decay)\n%s",
		Table("halfLife(h)", fSeries, bufSeries))
	return nil
}
