// Package experiments implements the reproduction harness: one runner per
// table/figure of the (reconstructed) evaluation grid in DESIGN.md §5. Each
// experiment builds its workload, drives the engines, and prints the
// rows/series the figure reports. `cmd/adbench` and the root bench_test.go
// both dispatch into this package.
package experiments

import (
	"fmt"
	"runtime"
	"time"

	"caar/internal/core"
	"caar/internal/feed"
	"caar/internal/timeslot"
	"caar/metrics"
	"caar/workload"
)

// driver replays one workload into one engine, measuring event processing
// cost. In continuous mode (k > 0) every post additionally refreshes the
// top-k of each affected follower — the paper's "ads with every feed
// refresh" serving model — the way the facade does: CAP from its per-user
// views, the baselines by re-ranking.
type driver struct {
	eng core.Recommender
	w   *workload.Workload
	k   int
}

// newEngine constructs an engine by name over the workload's region.
func newEngine(name string, scoring core.Scoring, w *workload.Workload, opts core.CAPOptions) (core.Recommender, error) {
	region := w.Cfg.Region
	switch name {
	case "RS":
		return core.NewRS(scoring, nil)
	case "IL":
		return core.NewIL(scoring, nil, region, 32, 32)
	case "CAP":
		return core.NewCAP(scoring, nil, region, 32, 32, opts)
	default:
		return nil, fmt.Errorf("experiments: unknown engine %q", name)
	}
}

// defaultScoring is the harness's operating point (matches DESIGN.md §5).
func defaultScoring(windowCap int) core.Scoring {
	return core.Scoring{
		AlphaText: 0.6,
		BetaGeo:   0.25,
		GammaBid:  0.15,
		Decay:     timeslot.NewDecay(2 * time.Hour),
		WindowCap: windowCap,
	}
}

// prepare loads users (with home-location check-ins) and ads into the
// engine.
func (d *driver) prepare() error {
	start := d.w.Cfg.Start
	for _, u := range d.w.Users {
		d.eng.AddUser(u.ID)
		if err := d.eng.CheckIn(u.ID, u.Home, start); err != nil {
			return err
		}
	}
	for _, a := range d.w.CloneAds() {
		if err := d.eng.AddAd(a); err != nil {
			return err
		}
	}
	return nil
}

// replayResult aggregates one replay's measurements.
type replayResult struct {
	Events    int
	Elapsed   time.Duration
	Latency   metrics.Samples
	TopKCalls int
}

// replay processes the workload's event stream. Each post is delivered to
// the author plus all followers; with k > 0 each affected user's top-k is
// refreshed. Latency is recorded per event (delivery + refreshes).
func (d *driver) replay(events []workload.Event) (replayResult, error) {
	var res replayResult
	fanout := make([]feed.UserID, 0, 256)
	wall := time.Now()
	for i := range events {
		ev := &events[i]
		evStart := time.Now()
		switch ev.Kind {
		case workload.EventCheckIn:
			if err := d.eng.CheckIn(ev.User, ev.Loc, ev.Time); err != nil {
				return res, err
			}
		case workload.EventPost:
			fanout = fanout[:0]
			fanout = append(fanout, ev.User)
			fanout = append(fanout, d.w.Graph.Followers(ev.User)...)
			if err := d.eng.Deliver(ev.Msg, fanout); err != nil {
				return res, err
			}
			if d.k > 0 {
				for _, u := range fanout {
					if _, err := d.eng.TopAds(u, d.k, ev.Time); err != nil {
						return res, err
					}
					res.TopKCalls++
				}
			}
		}
		res.Latency.Observe(time.Since(evStart))
		res.Events++
	}
	res.Elapsed = time.Since(wall)
	return res, nil
}

// runOnce builds an engine, prepares it, and replays the stream.
func runOnce(engineName string, w *workload.Workload, windowCap, k int, opts core.CAPOptions) (replayResult, error) {
	eng, err := newEngine(engineName, defaultScoring(windowCap), w, opts)
	if err != nil {
		return replayResult{}, err
	}
	d := &driver{eng: eng, w: w, k: k}
	if err := d.prepare(); err != nil {
		return replayResult{}, err
	}
	return d.replay(w.Events)
}

// heapAllocDelta measures live-heap growth across fn, in bytes. It is a
// coarse but honest memory probe: GC runs before both samples.
func heapAllocDelta(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	fn()
	runtime.GC()
	runtime.ReadMemStats(&after)
	if after.HeapAlloc < before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// mustGenerate panics on generator misconfiguration — experiment configs
// are code, not user input.
func mustGenerate(cfg workload.Config) *workload.Workload {
	w, err := workload.Generate(cfg)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return w
}

// scaledConfig returns the harness's base workload scaled by the runner's
// scale factor (bench mode uses small sizes; -full uses larger ones).
func scaledConfig(scale float64) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.Users = int(float64(cfg.Users) * scale)
	cfg.Ads = int(float64(cfg.Ads) * scale)
	cfg.Messages = int(float64(cfg.Messages) * scale)
	if cfg.Users < 50 {
		cfg.Users = 50
	}
	if cfg.Ads < 100 {
		cfg.Ads = 100
	}
	if cfg.Messages < 200 {
		cfg.Messages = 200
	}
	return cfg
}
