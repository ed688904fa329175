// Command adserver runs the context-aware ad recommender as an HTTP/JSON
// service (see internal/server for the endpoint list).
//
// Usage:
//
//	adserver -addr :8080 -algorithm CAP -shards 4
//
// The service starts empty; load users, follows, ads and campaigns through
// the API. Optionally -demo preloads a small demo dataset.
//
// Tracing: the request-scoped flight recorder is on by default, head-sampling
// 1% of recommends and always capturing slow (-trace-slow) and errored ones.
// Inspect captures via GET /v1/traces, force one with ?explain=1, disable
// with -trace-capacity 0.
//
// Durability: -snapshot restores engine state from an atomic snapshot at
// startup and writes a fresh one on shutdown; -journal recovers the event
// log (truncating a torn tail left by a crash) and appends every mutation
// at runtime with the fsync policy chosen by -fsync. On SIGINT/SIGTERM the
// server drains in-flight requests, flushes the journal, writes the final
// snapshot, and — with both flags set — resets the journal, whose events the
// snapshot now embeds, so the next startup doesn't double-apply them.
//
// Ingest: posts and check-ins go through the batched asynchronous pipeline —
// accepted into a bounded ring, group-committed to the journal (one fsync per
// batch), acked after the fsync, and fanned out to shards in batches. A full
// ring sheds with 429 + Retry-After. Tune with -ingest-queue and
// -ingest-batch.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/internal/faultinject"
	"caar/internal/server"
	"caar/journal"
	"caar/obs"
	"caar/obs/capture"
	"caar/obs/slo"
	"caar/obs/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("adserver: %v", err)
	}
}

func run() error {
	addr := flag.String("addr", ":8080", "listen address")
	algorithm := flag.String("algorithm", "CAP", "engine: CAP, IL or RS")
	shards := flag.Int("shards", 1, "user shards processed in parallel")
	windowSize := flag.Int("window", 32, "feed window size in messages")
	halfLife := flag.Duration("half-life", 2*time.Hour, "feed content decay half-life (0 = none)")
	journalPath := flag.String("journal", "", "append-only event log; recovered at startup, appended at runtime")
	fsync := flag.String("fsync", "always", "journal fsync policy: always, interval or never")
	fsyncInterval := flag.Duration("fsync-interval", time.Second, "fsync at most once per interval (with -fsync interval)")
	snapshotPath := flag.String("snapshot", "", "engine snapshot; loaded at startup, written atomically on shutdown")
	maxInFlight := flag.Int("max-inflight", 256, "max concurrent requests before shedding with 429 (0 = unlimited)")
	requestTimeout := flag.Duration("request-timeout", 10*time.Second, "per-request handling deadline (0 = none)")
	maxBody := flag.Int64("max-body", server.DefaultMaxBodyBytes, "max request body bytes (-1 = unlimited)")
	shutdownGrace := flag.Duration("shutdown-grace", 15*time.Second, "time to drain in-flight requests on SIGINT/SIGTERM")
	demo := flag.Bool("demo", false, "preload a small demo dataset")
	logLevel := flag.String("log-level", "info", "structured log level: debug, info, warn or error")
	slowReq := flag.Duration("slow-request", 500*time.Millisecond, "log requests slower than this at warn level (0 = off)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	traceCapacity := flag.Int("trace-capacity", trace.DefaultCapacity, "captured traces retained in the ring buffer (0 = tracing off)")
	traceSample := flag.Float64("trace-sample", 0.01, "head-sampling rate of ordinary requests (0 = tail capture only, 1 = every request)")
	traceSlow := flag.Duration("trace-slow", 250*time.Millisecond, "always capture requests slower than this (0 = no slow tail capture)")
	sloSpec := flag.String("slo", slo.DefaultObjectivesSpec, "SLO objectives: endpoint:latency:target or endpoint:errors:target, comma-separated (empty = tracking off)")
	sloFast := flag.Duration("slo-fast-window", 5*time.Minute, "fast burn-rate alerting window")
	sloSlow := flag.Duration("slo-slow-window", time.Hour, "slow burn-rate alerting window")
	sloSample := flag.Duration("slo-sample", 10*time.Second, "burn-rate sampling cadence")
	sloBurn := flag.Float64("slo-burn-threshold", 14.4, "burn rate that trips the watchdog (fast AND slow window)")
	captureDir := flag.String("capture-dir", "", "write anomaly capture bundles under this directory (empty = capture off)")
	captureRetain := flag.Int("capture-retain", 8, "capture bundles retained before the oldest are pruned")
	captureMinInterval := flag.Duration("capture-interval", time.Minute, "min spacing between anomaly-triggered captures")
	captureCPU := flag.Duration("capture-cpu", 2*time.Second, "CPU-profile duration inside each capture bundle")
	hotOff := flag.Bool("hot-off", false, "disable hot-key telemetry (/v1/hot)")
	hotWindow := flag.Duration("hot-window", 0, "hot-key sliding window (0 = engine default, 1m)")
	ingestQueue := flag.Int("ingest-queue", 4096, "ingest ring capacity, rounded up to a power of two; a full ring sheds with 429")
	ingestBatch := flag.Int("ingest-batch", 256, "max writes per ingest group commit (one fsync per batch, policy permitting)")
	flag.Parse()

	policy, err := journal.ParseSyncPolicy(*fsync)
	if err != nil {
		return err
	}
	level, err := parseLogLevel(*logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// One registry shared by every layer — engine, journal and HTTP server —
	// so a single GET /v1/metrics scrape exposes the whole process.
	reg := obs.NewRegistry()

	cfg := caar.DefaultConfig()
	cfg.Algorithm = caar.Algorithm(*algorithm)
	cfg.Shards = *shards
	cfg.WindowSize = *windowSize
	cfg.DecayHalfLife = *halfLife
	cfg.Metrics = reg
	cfg.DisableHotKeys = *hotOff
	cfg.HotKeyWindow = *hotWindow
	if *traceCapacity > 0 {
		cfg.Tracer = trace.NewStore(trace.Config{
			Capacity:      *traceCapacity,
			SampleRate:    *traceSample,
			SlowThreshold: *traceSlow,
		})
	}

	// Restore durable state: snapshot first (compact), then journal replay
	// on top. After a graceful shutdown the journal is empty (its events are
	// embedded in the final snapshot); after a crash it holds everything
	// since the last snapshot.
	var eng *caar.Engine
	snapRestored := false
	if *snapshotPath != "" && caar.SnapshotExists(*snapshotPath) {
		var loaded string
		eng, loaded, err = caar.LoadSnapshot(cfg, *snapshotPath)
		if err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
		if loaded != *snapshotPath {
			log.Printf("snapshot: primary %s failed verification, restored from fallback %s", *snapshotPath, loaded)
		} else {
			log.Printf("snapshot restored from %s", loaded)
		}
		snapRestored = true
	} else {
		eng, err = caar.Open(cfg)
		if err != nil {
			return err
		}
	}

	// Fault injection: the soak harness arms named crash points through the
	// environment; the capture smoke test arms serving-path delay points the
	// same way. Production runs leave both variables unset and every hook
	// stays a single atomic load.
	if spec, err := faultinject.ArmCrashPointsFromEnv(); err != nil {
		return err
	} else if spec != "" {
		log.Printf("faultinject: crash points armed: %s", spec)
	}
	if spec, err := faultinject.ArmDelaysFromEnv(); err != nil {
		return err
	} else if spec != "" {
		log.Printf("faultinject: delay points armed: %s", spec)
	}
	// Lock watchdog: a no-op outside `-tags caarlockwatch` builds; the
	// race-matrix smokes build with the tag and set CAAR_LOCKWATCH so a
	// mutex held past the bound dumps all goroutine stacks and panics.
	if spec, err := faultinject.ArmLockWatchFromEnv(); err != nil {
		return err
	} else if spec != "" {
		log.Printf("faultinject: lock watchdog armed: bound %s", spec)
	}

	// The journal is recovered AFTER the listener opens (below), behind the
	// server's recovery gate: API traffic gets 503 + Retry-After and
	// /v1/readyz reports live replay progress, so a supervisor can tell a
	// long replay from a wedged process. Here we only open the file and
	// build the write path.
	var api server.API = eng
	var jw *journal.Writer
	var jf *os.File
	var jm *journal.Metrics
	var recovery *journal.RecoveryProgress
	if *journalPath != "" {
		jf, err = os.OpenFile(*journalPath, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		defer jf.Close()
		// O_CREATE may have minted the directory entry; make it durable
		// before acknowledging anything written through it.
		if err := journal.FsyncDir(filepath.Dir(*journalPath)); err != nil {
			return err
		}
		jm = journal.NewMetrics(reg)
		jw = journal.NewFileWriter(jf, policy, *fsyncInterval)
		jw.SetMetrics(jm)
		api = journal.NewLogged(eng, jw)
		recovery = journal.NewRecoveryProgress()
	}

	// Batched asynchronous ingest: posts and check-ins enter a bounded ring,
	// a committer group-commits them to the journal (one fsync per batch) and
	// acks after the fsync, and an applier fans batches out to the shards.
	// Without -journal the pipeline still batches the fan-out but the group
	// commit is a no-op: the ack only promises the write will be applied.
	// Control-plane mutations (users, follows, ads, campaigns) stay on the
	// synchronous journaled path; the committer's idle timer also flushes
	// their interval-policy fsync tail.
	var ij ingest.Journal = noopJournal{}
	if jw != nil {
		ij = jw
	}
	ing := ingest.New(eng, ij, reg, ingest.Config{
		QueueSize: *ingestQueue,
		MaxBatch:  *ingestBatch,
	})

	srvOpts := []server.Option{
		server.WithMaxInFlight(*maxInFlight),
		server.WithRequestTimeout(*requestTimeout),
		server.WithMaxBodyBytes(*maxBody),
		server.WithMetrics(reg),
		server.WithAccessLog(logger),
		server.WithSlowRequestThreshold(*slowReq),
		server.WithIngest(ing),
	}
	if recovery != nil {
		srvOpts = append(srvOpts, server.WithRecoveryProgress(recovery))
	}
	if *pprofOn {
		// Profiling is opt-in. It mounts on the server's own mux: operator
		// paths (which /debug/pprof/ is) bypass admission control and the
		// request deadline, so a long CPU profile is not cut off.
		srvOpts = append(srvOpts, server.WithDebugPprof())
		logger.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}

	// Anomaly flight recorder: when the SLO watchdog below trips, profiles
	// are captured while the anomaly is still happening.
	var recorder *capture.Recorder
	if *captureDir != "" {
		recorder, err = capture.NewRecorder(capture.Config{
			Dir:                       *captureDir,
			Retain:                    *captureRetain,
			MinInterval:               *captureMinInterval,
			CPUProfileDuration:        *captureCPU,
			Metrics:                   reg,
			EnableContentionProfiling: true,
		})
		if err != nil {
			return err
		}
		srvOpts = append(srvOpts, server.WithCapture(recorder))
		logger.Info("capture enabled", slog.String("dir", *captureDir))
	}

	// SLO watchdog: multi-window burn rates over the serving histograms,
	// wired to the recorder so a trip produces a bundle (rate-limited by
	// -capture-interval; a trip during an in-flight capture is dropped).
	if *sloSpec != "" {
		objectives, err := slo.ParseObjectives(*sloSpec)
		if err != nil {
			return err
		}
		sloCfg := slo.Config{
			FastWindow:    *sloFast,
			SlowWindow:    *sloSlow,
			SampleEvery:   *sloSample,
			BurnThreshold: *sloBurn,
			OnTrip: func(tp slo.Trip) {
				logger.Warn("slo watchdog tripped",
					slog.String("objective", tp.Objective),
					slog.String("endpoint", tp.Endpoint),
					slog.Float64("fast_burn", tp.FastBurn),
					slog.Float64("slow_burn", tp.SlowBurn))
				if recorder == nil {
					return
				}
				go func() {
					reason := fmt.Sprintf("slo %s on %s: fast burn %.1f, slow burn %.1f (threshold %.1f)",
						tp.Objective, tp.Endpoint, tp.FastBurn, tp.SlowBurn, tp.Threshold)
					name, err := recorder.Capture("anomaly", reason, false)
					if err != nil {
						logger.Warn("anomaly capture skipped", slog.String("error", err.Error()))
						return
					}
					logger.Info("anomaly capture written", slog.String("bundle", name))
				}()
			},
		}
		srvOpts = append(srvOpts, server.WithSLO(sloCfg, objectives...))
	}

	srv := server.New(api, srvOpts...)
	handler := srv.Handler()
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if t := srv.SLO(); t != nil {
		go t.Run(ctx.Done())
	}
	// Hot-key aggregator: drains the lock-free record queues into the
	// sliding-window sketches so gauges stay fresh between /v1/hot reads.
	if ht := eng.HotTracker(); ht != nil {
		go ht.Run(ctx.Done())
	}

	errc := make(chan error, 1)
	go func() {
		log.Printf("adserver listening on %s (algorithm=%s shards=%d fsync=%s)",
			*addr, eng.Algorithm(), *shards, policy)
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	// Replay the journal behind the recovery gate: the listener is already
	// up, operator endpoints answer, API traffic is parked with 503 until
	// the gate drops. No mutation can interleave with replay because every
	// mutating path goes through the gated handler.
	if jf != nil {
		stats, err := journal.RecoverWithProgress(jf, eng, recovery)
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		jm.ObserveReplay(stats)
		log.Printf("journal recovered: %d applied, %d skipped (%d duplicate, %d unknown ref, %d invalid)",
			stats.Applied, stats.Skipped, stats.SkippedDuplicate, stats.SkippedUnknownRef, stats.SkippedInvalid)
		if stats.Torn {
			log.Printf("journal: torn tail truncated, %d bytes discarded", stats.DiscardedBytes)
		}
		// After a snapshot restore, duplicate skips are expected (events from
		// the crash window already in the snapshot); only dump samples when
		// something other than a duplicate was skipped.
		if !snapRestored || stats.Skipped > stats.SkippedDuplicate {
			for _, e := range stats.SkipErrors {
				log.Printf("journal: skipped entry: %s", e)
			}
		}
	}

	if *demo {
		if err := loadDemo(api); err != nil {
			return fmt.Errorf("demo data: %w", err)
		}
		log.Print("demo dataset loaded (users alice/bob/carol, ads shoes/cafe/vpn)")
	}

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process immediately

	// Graceful shutdown: drain in-flight requests, then make everything
	// they changed durable.
	log.Printf("shutting down: draining for up to %v", *shutdownGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownGrace)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("shutdown: drain incomplete: %v", err)
	}
	// Drain order matters: the listener is down (no new submissions), so the
	// pipeline drains everything already acked through commit AND apply
	// BEFORE the journal is flushed and the snapshot captures final state.
	if err := ing.Close(); err != nil {
		log.Printf("shutdown: ingest drain: %v", err)
	} else {
		log.Print("ingest pipeline drained")
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			return fmt.Errorf("journal flush on shutdown: %w", err)
		}
		log.Print("journal flushed")
	}
	if *snapshotPath != "" {
		if err := eng.SaveSnapshot(*snapshotPath); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		log.Printf("snapshot written to %s", *snapshotPath)
		// Every journaled event is now embedded in the snapshot (including
		// campaign spend and vocabulary counts, which are NOT idempotent to
		// replay). Reset the journal so the next startup restores the
		// snapshot alone instead of double-applying the log on top. A crash
		// in the instant between SaveSnapshot and Reset re-opens that window;
		// duplicate-tolerant ops are skipped on replay and the gap is logged.
		if jf != nil {
			if err := journal.Reset(jf); err != nil {
				return fmt.Errorf("journal reset after snapshot: %w", err)
			}
			log.Print("journal reset (state captured in snapshot)")
		}
	}
	log.Print("adserver stopped")
	return nil
}

// noopJournal backs the ingest pipeline when -journal is not configured:
// group commit is a no-op, so the ack only promises the write will be
// applied.
type noopJournal struct{}

func (noopJournal) AppendBatch([]journal.Entry) error { return nil }
func (noopJournal) SyncPending() error                { return nil }

// parseLogLevel maps the -log-level flag to a slog level.
func parseLogLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("invalid -log-level %q (want debug, info, warn or error)", s)
}

// loadDemo seeds through the API (not the raw engine) so the demo data is
// journaled like any other mutation.
func loadDemo(api server.API) error {
	now := time.Now()
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := api.AddUser(u); err != nil {
			return err
		}
	}
	follows := [][2]string{{"alice", "bob"}, {"carol", "bob"}, {"bob", "alice"}}
	for _, f := range follows {
		if err := api.Follow(f[0], f[1]); err != nil {
			return err
		}
	}
	ads := []caar.Ad{
		{ID: "shoes", Text: "marathon running shoes spring sale", Bid: 0.4},
		{ID: "cafe", Text: "espresso pastries downtown coffee", Bid: 0.3,
			Target: &caar.Target{Lat: 1.5, Lng: 1.5, RadiusKm: 30}},
		{ID: "vpn", Text: "secure fast vpn service", Bid: 0.6},
	}
	for _, a := range ads {
		if err := api.AddAd(a); err != nil {
			return err
		}
	}
	if err := api.CheckIn("alice", 1.5, 1.5, now); err != nil {
		return err
	}
	posts := []struct{ author, text string }{
		{"bob", "long marathon run this morning, shoes finally broke in"},
		{"alice", "espresso after the run hits different"},
		{"bob", "coffee and pastries with the running club"},
	}
	for _, p := range posts {
		if err := api.Post(p.author, p.text, now); err != nil {
			return err
		}
	}
	_, err := fmt.Println("demo ready: try GET /v1/recommendations?user=alice&k=3")
	return err
}
