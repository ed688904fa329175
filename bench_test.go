package caar_test

// One benchmark per table/figure of the evaluation grid (DESIGN.md §5).
// Each bench runs the corresponding experiment end-to-end at a reduced
// scale and discards its printed output; run `go run ./cmd/adbench -exp
// <id>` to see the actual rows/series, and raise -scale for full-size runs.

import (
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	caar "caar"
	"caar/internal/experiments"
)

// benchScale keeps a full `go test -bench=.` pass in the minutes range; the
// experiment *shapes* (who wins, how curves bend) are stable across scales.
const benchScale = 0.03

func runExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := &experiments.Runner{Out: io.Discard, Scale: benchScale}
		if err := r.Run(id); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1WorkloadStats(b *testing.B)   { runExperiment(b, "T1") }
func BenchmarkT2IndexBuild(b *testing.B)      { runExperiment(b, "T2") }
func BenchmarkF1ThroughputVsAds(b *testing.B) { runExperiment(b, "F1") }
func BenchmarkF2LatencyVsK(b *testing.B)      { runExperiment(b, "F2") }
func BenchmarkF3WindowSize(b *testing.B)      { runExperiment(b, "F3") }
func BenchmarkF4Fanout(b *testing.B)          { runExperiment(b, "F4") }
func BenchmarkF5Memory(b *testing.B)          { runExperiment(b, "F5") }
func BenchmarkF6Effectiveness(b *testing.B)   { runExperiment(b, "F6") }
func BenchmarkF7Mixing(b *testing.B)          { runExperiment(b, "F7") }
func BenchmarkF8Parallel(b *testing.B)        { runExperiment(b, "F8") }
func BenchmarkF9Ablation(b *testing.B)        { runExperiment(b, "F9") }
func BenchmarkF10Decay(b *testing.B)          { runExperiment(b, "F10") }

// --- facade micro-benchmarks -------------------------------------------

// benchEngine builds a loaded engine for the micro benches.
func benchEngine(b *testing.B, alg caar.Algorithm, users, ads int) (*caar.Engine, []string, time.Time) {
	b.Helper()
	cfg := caar.DefaultConfig()
	cfg.Algorithm = alg
	eng, err := caar.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	names := make([]string, users)
	for i := range names {
		names[i] = fmt.Sprintf("u%05d", i)
		if err := eng.AddUser(names[i]); err != nil {
			b.Fatal(err)
		}
	}
	for i := 1; i < users; i++ {
		// Star-ish graph: everyone follows user 0 plus a neighbour.
		if err := eng.Follow(names[i], names[0]); err != nil {
			b.Fatal(err)
		}
		if err := eng.Follow(names[i], names[(i+1)%users]); err != nil && i+1 != users {
			b.Fatal(err)
		}
	}
	for i := 0; i < ads; i++ {
		text := fmt.Sprintf("word%04d word%04d word%04d word%04d", i%997, (i*3)%997, (i*7)%997, (i*13)%997)
		if err := eng.AddAd(caar.Ad{ID: fmt.Sprintf("ad%05d", i), Text: text, Bid: 0.1 + float64(i%90)/100}); err != nil {
			b.Fatal(err)
		}
	}
	now := time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)
	// Warm the feeds.
	for i := 0; i < 100; i++ {
		now = now.Add(time.Second)
		if err := eng.Post(names[0], fmt.Sprintf("word%04d word%04d update", i%997, (i*11)%997), now); err != nil {
			b.Fatal(err)
		}
	}
	return eng, names, now
}

// BenchmarkPostCAP measures one post fan-out through the CAP engine
// (500 followers, 5k ads).
func BenchmarkPostCAP(b *testing.B) {
	eng, names, now := benchEngine(b, caar.AlgorithmCAP, 500, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(time.Second)
		if err := eng.Post(names[0], "word0100 word0200 word0300 streaming update", now); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAddAd measures ad churn at a steady catalogue size: each iteration
// starts one ad and withdraws the oldest one (one user, whose window is warm).
// The directory publish is what scales with the catalogue, and by its root:
// 8k must stay within ~3× of 1k, where a directory copied whole per call
// gives 8×.
func BenchmarkAddAd(b *testing.B) {
	for _, preload := range []int{1000, 8000} {
		b.Run(fmt.Sprintf("%dk", preload/1000), func(b *testing.B) {
			eng, _, _ := benchEngine(b, caar.AlgorithmCAP, 1, preload)
			name := func(i int) string { return fmt.Sprintf("ad%05d", i) } // benchEngine's, continued
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := eng.AddAd(caar.Ad{ID: name(preload + i), Text: "word0100 word0200 word0300", Bid: 0.5}); err != nil {
					b.Fatal(err)
				}
				if err := eng.RemoveAd(name(i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecommend measures one top-5 query per engine (5k ads).
func BenchmarkRecommend(b *testing.B) {
	for _, alg := range []caar.Algorithm{caar.AlgorithmRS, caar.AlgorithmIL, caar.AlgorithmCAP} {
		b.Run(string(alg), func(b *testing.B) {
			eng, names, now := benchEngine(b, alg, 200, 5000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eng.Recommend(names[i%100+1], 5, now); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRecommendParallel measures top-5 queries issued from GOMAXPROCS
// goroutines at once while a writer churns AddAd/RemoveAd — the read path
// must scale instead of serializing on global engine state.
func BenchmarkRecommendParallel(b *testing.B) {
	eng, names, now := benchEngine(b, caar.AlgorithmCAP, 200, 5000)
	stop := make(chan struct{})
	var writerDone sync.WaitGroup
	writerDone.Add(1)
	go func() {
		defer writerDone.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := fmt.Sprintf("churn-%d", i)
			if err := eng.AddAd(caar.Ad{ID: id, Text: "word0042 word0084 flash deal", Bid: 0.2}); err != nil {
				b.Error(err)
				return
			}
			if err := eng.RemoveAd(id); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			i++
			if _, err := eng.Recommend(names[i%100+1], 5, now); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.StopTimer()
	close(stop)
	writerDone.Wait()
}
