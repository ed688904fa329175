package experiments

import (
	"runtime"
	"time"

	"caar/internal/core"
	"caar/metrics"
	"caar/workload"
)

// engines compared in the throughput/latency figures.
var engineNames = []string{"RS", "IL", "CAP"}

func init() {
	register(Experiment{ID: "T1", Title: "Workload statistics", Run: runT1})
	register(Experiment{ID: "F1", Title: "Throughput vs number of ads", Run: runF1})
	register(Experiment{ID: "F2", Title: "Event latency vs k", Run: runF2})
	register(Experiment{ID: "F3", Title: "Throughput vs feed-window size", Run: runF3})
	register(Experiment{ID: "F4", Title: "Throughput vs follower fan-out", Run: runF4})
	register(Experiment{ID: "F5", Title: "Memory vs number of ads", Run: runF5})
	register(Experiment{ID: "F8", Title: "Throughput vs shard parallelism", Run: runF8})
	register(Experiment{ID: "F9", Title: "CAP ablation", Run: runF9})
	register(Experiment{ID: "T2", Title: "Index build cost", Run: runT2})
}

func runT1(r *Runner) error {
	w := mustGenerate(scaledConfig(r.Scale))
	posts, checkins := 0, 0
	for _, e := range w.Events {
		if e.Kind == workload.EventPost {
			posts++
		} else {
			checkins++
		}
	}
	_, maxFan := w.Graph.MaxFanout()
	globals := 0
	for _, a := range w.Ads {
		if a.Global {
			globals++
		}
	}
	r.printf("%-28s %d\n", "users", len(w.Users))
	r.printf("%-28s %d\n", "follow edges", w.Graph.Edges())
	r.printf("%-28s %.1f\n", "avg followers", float64(w.Graph.Edges())/float64(len(w.Users)))
	r.printf("%-28s %d\n", "max fan-out", maxFan)
	r.printf("%-28s %d\n", "ads", len(w.Ads))
	r.printf("%-28s %d (%.0f%%)\n", "global ads", globals, 100*float64(globals)/float64(len(w.Ads)))
	r.printf("%-28s %d\n", "latent topics", w.Cfg.Topics)
	r.printf("%-28s %d\n", "vocabulary", w.Cfg.Vocab)
	r.printf("%-28s %d\n", "post events", posts)
	r.printf("%-28s %d\n", "check-in events", checkins)
	if len(w.Events) > 0 {
		span := w.Events[len(w.Events)-1].Time.Sub(w.Events[0].Time)
		r.printf("%-28s %v\n", "stream span", span.Round(time.Second))
	}
	return nil
}

// runF1 sweeps the ad count and reports events/sec per engine. Claim under
// test: CAP's advantage over RS grows with |A| and beats IL consistently,
// because its per-event cost is independent of the total ad count.
func runF1(r *Runner) error {
	adCounts := []int{1000, 2000, 5000, 10000}
	series := make([]metrics.Series, len(engineNames))
	for i, n := range engineNames {
		series[i].Name = n
	}
	for _, ads := range adCounts {
		cfg := scaledConfig(r.Scale)
		cfg.Ads = int(float64(ads) * r.Scale * 10) // scale≈0.1 → listed counts
		if cfg.Ads < 100 {
			cfg.Ads = 100
		}
		w := mustGenerate(cfg)
		for i, name := range engineNames {
			res, err := runOnce(name, w, 32, 5, core.DefaultCAPOptions())
			if err != nil {
				return err
			}
			series[i].Add(float64(cfg.Ads), metrics.Throughput{
				Events: uint64(res.Events), Elapsed: res.Elapsed,
			}.PerSecond())
		}
	}
	r.printf("events/sec by ad count (continuous top-5)\n%s", metrics.Table("ads", series...))
	return nil
}

// runF2 sweeps k and reports p99 event latency per engine at a fixed ad
// count. Claim: CAP latency grows only mildly with k (buffer scan), while
// RS/IL pay their full per-query cost regardless.
func runF2(r *Runner) error {
	w := mustGenerate(scaledConfig(r.Scale))
	ks := []int{1, 5, 10, 20, 50}
	series := make([]metrics.Series, len(engineNames))
	for i, n := range engineNames {
		series[i].Name = n
	}
	for _, k := range ks {
		for i, name := range engineNames {
			res, err := runOnce(name, w, 32, k, core.DefaultCAPOptions())
			if err != nil {
				return err
			}
			series[i].Add(float64(k), float64(res.Latency.Quantile(0.99).Microseconds()))
		}
	}
	r.printf("p99 event latency (µs) by k\n%s", metrics.Table("k", series...))
	return nil
}

// runF3 sweeps the feed-window size for CAP and IL. Claim: larger windows
// grow IL's per-query context (more posting lists touched) faster than
// CAP's incremental cost.
func runF3(r *Runner) error {
	w := mustGenerate(scaledConfig(r.Scale))
	wins := []int{8, 16, 32, 64, 128}
	names := []string{"IL", "CAP"}
	series := make([]metrics.Series, len(names))
	for i, n := range names {
		series[i].Name = n
	}
	for _, win := range wins {
		for i, name := range names {
			res, err := runOnce(name, w, win, 5, core.DefaultCAPOptions())
			if err != nil {
				return err
			}
			series[i].Add(float64(win), metrics.Throughput{
				Events: uint64(res.Events), Elapsed: res.Elapsed,
			}.PerSecond())
		}
	}
	r.printf("events/sec by window size (continuous top-5)\n%s", metrics.Table("window", series...))
	return nil
}

// runF4 sweeps the average fan-out. Claim: all engines slow with fan-out
// (more followers touched per post) but CAP's fan-out sharing flattens the
// curve relative to recomputation.
func runF4(r *Runner) error {
	fans := []int{4, 8, 16, 32}
	names := []string{"IL", "CAP", "CAP-noshare"}
	series := make([]metrics.Series, len(names))
	for i, n := range names {
		series[i].Name = n
	}
	for _, fan := range fans {
		cfg := scaledConfig(r.Scale)
		cfg.AvgFollowees = fan
		w := mustGenerate(cfg)
		runs := []struct {
			name string
			eng  string
			opts core.CAPOptions
		}{
			{"IL", "IL", core.DefaultCAPOptions()},
			{"CAP", "CAP", core.DefaultCAPOptions()},
			{"CAP-noshare", "CAP", core.CAPOptions{FanoutSharing: false, RebuildEvery: 256}},
		}
		for i, run := range runs {
			res, err := runOnce(run.eng, w, 32, 5, run.opts)
			if err != nil {
				return err
			}
			series[i].Add(float64(fan), metrics.Throughput{
				Events: uint64(res.Events), Elapsed: res.Elapsed,
			}.PerSecond())
		}
	}
	r.printf("events/sec by average fan-out (continuous top-5)\n%s", metrics.Table("fanout", series...))
	return nil
}

// runF5 sweeps the ad count and reports live-heap bytes per ad for the
// loaded engine state (store + indexes + buffers after warm-up, every user
// read once at the end).
func runF5(r *Runner) error {
	adCounts := []int{1000, 2000, 5000, 10000}
	series := make([]metrics.Series, len(engineNames))
	for i, n := range engineNames {
		series[i].Name = n
	}
	for _, ads := range adCounts {
		cfg := scaledConfig(r.Scale)
		cfg.Ads = int(float64(ads) * r.Scale * 10)
		if cfg.Ads < 100 {
			cfg.Ads = 100
		}
		cfg.Messages = cfg.Messages / 4 // warm-up stream only
		w := mustGenerate(cfg)
		for i, name := range engineNames {
			var keep core.Recommender // keeps the loaded engine live across the heap sample
			bytes := heapAllocDelta(func() {
				eng, err := newEngine(name, defaultScoring(32), w, core.DefaultCAPOptions())
				if err != nil {
					panic(err)
				}
				d := &driver{eng: eng, w: w, k: 0}
				if err := d.prepare(); err != nil {
					panic(err)
				}
				if _, err := d.replay(w.Events); err != nil {
					panic(err)
				}
				// CAP holds a candidate buffer only for a feed somebody reads:
				// the figure is the footprint with every feed read.
				for _, u := range w.Users {
					if _, err := eng.TopAds(u.ID, 5, cfg.Start.Add(24*time.Hour)); err != nil {
						panic(err)
					}
				}
				keep = eng
			})
			runtime.KeepAlive(keep)
			series[i].Add(float64(cfg.Ads), float64(bytes)/float64(cfg.Ads))
		}
	}
	r.printf("live-heap bytes per ad after warm-up\n%s", metrics.Table("ads", series...))
	return nil
}

// runF8 measures post throughput of the sharded facade; see bench_facade.go
// for the facade-level driver.
func runF8(r *Runner) error {
	return runFacadeParallel(r)
}

// runF9 compares CAP feature ablations on one workload. Claim: each
// optimization contributes; disabling fan-out sharing costs the most under
// skewed fan-out.
func runF9(r *Runner) error {
	cfg := scaledConfig(r.Scale)
	cfg.AvgFollowees = 24 // accentuate fan-out effects
	w := mustGenerate(cfg)
	variants := []struct {
		name string
		eng  string
		opts core.CAPOptions
	}{
		{"CAP (full)", "CAP", core.DefaultCAPOptions()},
		{"CAP -fanout-sharing", "CAP", core.CAPOptions{FanoutSharing: false, RebuildEvery: 256}},
		{"CAP -rebuild", "CAP", core.CAPOptions{FanoutSharing: true, RebuildEvery: 0}},
		{"IL (no incremental)", "IL", core.DefaultCAPOptions()},
		{"RS (no index)", "RS", core.DefaultCAPOptions()},
	}
	r.printf("%-24s %14s %14s\n", "variant", "events/sec", "p99 (µs)")
	for _, v := range variants {
		res, err := runOnce(v.eng, w, 32, 5, v.opts)
		if err != nil {
			return err
		}
		tp := metrics.Throughput{Events: uint64(res.Events), Elapsed: res.Elapsed}
		r.printf("%-24s %14.1f %14d\n", v.name, tp.PerSecond(), res.Latency.Quantile(0.99).Microseconds())
	}
	return nil
}

// runT2 reports index construction cost per engine: wall time and heap to
// load the full ad set.
func runT2(r *Runner) error {
	cfg := scaledConfig(r.Scale)
	cfg.Messages = 0
	cfg.CheckInEvery = 0
	w := mustGenerate(cfg)
	r.printf("%-8s %14s %16s\n", "engine", "build time", "heap bytes/ad")
	for _, name := range engineNames {
		var elapsed time.Duration
		var keep core.Recommender // keeps the built engine live across the heap sample
		bytes := heapAllocDelta(func() {
			eng, err := newEngine(name, defaultScoring(32), w, core.DefaultCAPOptions())
			if err != nil {
				panic(err)
			}
			start := time.Now()
			for _, a := range w.CloneAds() {
				if err := eng.AddAd(a); err != nil {
					panic(err)
				}
			}
			elapsed = time.Since(start)
			keep = eng
		})
		runtime.KeepAlive(keep)
		r.printf("%-8s %14v %16.1f\n", name, elapsed.Round(time.Microsecond), float64(bytes)/float64(len(w.Ads)))
	}
	return nil
}
