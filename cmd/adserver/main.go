// Command adserver runs the context-aware ad recommender as an HTTP/JSON
// service (README.md lists the endpoints and the flags).
//
// Usage:
//
//	adserver -addr :8080 -shards 4
//
// The service starts empty; load users, follows, ads and campaigns through
// the API. Optionally -demo preloads a small demo dataset.
//
// Observability is always on, with fixed settings: the request-scoped flight
// recorder keeps the newest 512 traces, head-sampling 1% of recommends and
// always capturing those slower than 250ms and errored ones (inspect them via
// GET /v1/traces, force one with ?explain=1); the SLO watchdog (-slo) runs
// with its package's defaults, and -hot-off is the one hot-key switch.
//
// Durability: -journal names the one state file, a snapshot head followed
// by journal records. At startup the head is restored and the records are
// recovered (a torn tail left by a crash is truncated); at runtime every
// mutation is appended with the fsync policy chosen by -fsync. On
// SIGINT/SIGTERM the server drains in-flight requests, flushes the journal,
// and replaces the state file with a fresh head in one atomic rename.
// Without -journal nothing is persisted.
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
	"caar/internal/durable"
	"caar/internal/faultinject"
	"caar/internal/server"
	"caar/journal"
	"caar/obs"
	"caar/obs/slo"
	"caar/obs/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatalf("adserver: %v", err)
	}
}

// The flight recorder's capture policy: the newest trace.DefaultCapacity
// traces are kept, 1% of recommends head-sampled, and every one at least
// traceSlow slow tail-captured. The other observability settings are their
// packages' defaults (obs/slo, obs/hotkey, the server's
// slow-request log).
const (
	traceSampleRate = 0.01
	traceSlow       = 250 * time.Millisecond
)

// settings is adserver's command line, one field per flag.
type settings struct {
	addr, journal, fsync, logLevel, slo                    string
	shards, window, maxInFlight, ingestQueue, ingestBatch  int
	halfLife, fsyncInterval, requestTimeout, shutdownGrace time.Duration
	maxBody                                                int64
	demo, pprof, hotOff                                    bool
}

// newFlagSet declares adserver's flags, bound to s.
func newFlagSet(s *settings) *flag.FlagSet {
	fs := flag.NewFlagSet("adserver", flag.ExitOnError)
	fs.StringVar(&s.addr, "addr", ":8080", "listen address")
	fs.IntVar(&s.shards, "shards", 0, "user shards processed in parallel (0 = four per core; one on a single core)")
	fs.IntVar(&s.window, "window", 32, "feed window size in messages")
	fs.DurationVar(&s.halfLife, "half-life", 2*time.Hour, "feed content decay half-life (0 = none)")
	fs.StringVar(&s.journal, "journal", "", "state file: snapshot head plus event log; recovered at startup, appended at runtime, compacted on shutdown")
	fs.StringVar(&s.fsync, "fsync", "always", "journal fsync policy: always, interval or never")
	fs.DurationVar(&s.fsyncInterval, "fsync-interval", time.Second, "fsync at most once per interval (with -fsync interval)")
	fs.IntVar(&s.maxInFlight, "max-inflight", 256, "max concurrent requests before shedding with 429 (0 = unlimited)")
	fs.DurationVar(&s.requestTimeout, "request-timeout", 10*time.Second, "per-request handling deadline (0 = none)")
	fs.Int64Var(&s.maxBody, "max-body", server.DefaultMaxBodyBytes, "max request body bytes (-1 = unlimited)")
	fs.DurationVar(&s.shutdownGrace, "shutdown-grace", 15*time.Second, "time to drain in-flight requests on SIGINT/SIGTERM")
	fs.BoolVar(&s.demo, "demo", false, "preload a small demo dataset")
	fs.StringVar(&s.logLevel, "log-level", "info", "structured log level: debug, info, warn or error")
	fs.BoolVar(&s.pprof, "pprof", false, "expose net/http/pprof profiling under /debug/pprof/")
	fs.StringVar(&s.slo, "slo", slo.DefaultObjectivesSpec, "SLO objectives: endpoint:latency:target or endpoint:errors:target, comma-separated (empty = tracking off)")
	fs.BoolVar(&s.hotOff, "hot-off", false, "disable hot-key telemetry (/v1/hot)")
	fs.IntVar(&s.ingestQueue, "ingest-queue", 4096, "ingest ring capacity, rounded up to a power of two; a full ring sheds with 429")
	fs.IntVar(&s.ingestBatch, "ingest-batch", 256, "max writes per ingest group commit (one fsync per batch, policy permitting)")
	return fs
}

func run() error {
	var opt settings
	if err := newFlagSet(&opt).Parse(os.Args[1:]); err != nil {
		return err
	}

	policy, err := journal.ParseSyncPolicy(opt.fsync)
	if err != nil {
		return err
	}
	level, err := parseLogLevel(opt.logLevel)
	if err != nil {
		return err
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	// One registry shared by every layer — engine, journal and HTTP server —
	// so a single GET /v1/metrics scrape exposes the whole process.
	reg := obs.NewRegistry()

	cfg := caar.DefaultConfig()
	cfg.Shards = opt.shards
	cfg.WindowSize = opt.window
	cfg.DecayHalfLife = opt.halfLife
	cfg.Metrics = reg
	cfg.DisableHotKeys = opt.hotOff
	cfg.Tracer = trace.NewStore(trace.Config{
		Capacity:      trace.DefaultCapacity,
		SampleRate:    traceSampleRate,
		SlowThreshold: traceSlow,
	})

	// Restore durable state: the state file's head now; its records are
	// recovered after the listener opens (below), behind the server's
	// recovery gate.
	var eng *caar.Engine
	var jf *os.File
	if opt.journal == "" {
		eng, err = caar.Open(cfg)
	} else {
		jf, err = os.OpenFile(opt.journal, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("journal: %w", err)
		}
		defer jf.Close()
		// O_CREATE may have minted the directory entry; make it durable
		// before acknowledging anything written through it.
		if err := durable.FsyncDir(filepath.Dir(opt.journal)); err != nil {
			return err
		}
		eng, err = caar.OpenState(cfg, jf)
	}
	if err != nil {
		return err
	}

	// Fault injection: the soak harness arms named crash points through the
	// environment. Production runs leave the variable unset and every hook
	// stays a single atomic load.
	if spec, err := faultinject.ArmCrashPointsFromEnv(); err != nil {
		return err
	} else if spec != "" {
		log.Printf("faultinject: crash points armed: %s", spec)
	}
	// Lock watchdog: a no-op outside `-tags caarlockwatch` builds; the
	// race-matrix smokes build with the tag and set CAAR_LOCKWATCH so a
	// mutex held past the bound dumps all goroutine stacks and panics.
	if spec, err := faultinject.ArmLockWatchFromEnv(); err != nil {
		return err
	} else if spec != "" {
		log.Printf("faultinject: lock watchdog armed: bound %s", spec)
	}

	// The records are recovered AFTER the listener opens (below), behind the
	// server's recovery gate: API traffic gets 503 + Retry-After and
	// /v1/readyz reports live replay progress, so a supervisor can tell a
	// long replay from a wedged process. Here we only build the write path.
	var api server.API = eng
	var jw *journal.Writer
	var recovery *journal.RecoveryProgress
	if jf != nil {
		jw = journal.NewFileWriter(jf, policy, opt.fsyncInterval)
		jw.SetMetrics(journal.NewMetrics(reg))
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
		QueueSize: opt.ingestQueue,
		MaxBatch:  opt.ingestBatch,
	})

	srvOpts := []server.Option{
		server.WithMaxInFlight(opt.maxInFlight),
		server.WithRequestTimeout(opt.requestTimeout),
		server.WithMaxBodyBytes(opt.maxBody),
		server.WithMetrics(reg),
		server.WithAccessLog(logger),
		server.WithIngest(ing),
	}
	if recovery != nil {
		srvOpts = append(srvOpts, server.WithRecoveryProgress(recovery))
	}
	if opt.pprof {
		// Profiling is opt-in. It mounts on the server's own mux: operator
		// paths (which /debug/pprof/ is) bypass admission control and the
		// request deadline, so a long CPU profile is not cut off.
		srvOpts = append(srvOpts, server.WithDebugPprof())
		logger.Info("pprof enabled", slog.String("path", "/debug/pprof/"))
	}

	// SLO watchdog: multi-window burn rates over the serving histograms. A
	// trip is logged here, counted in caar_slo_trips_total and reported by
	// /v1/slo; the evidence is read live from /v1/traces, /v1/hot and
	// /debug/pprof (README's SLO run-book).
	if opt.slo != "" {
		objectives, err := slo.ParseObjectives(opt.slo)
		if err != nil {
			return err
		}
		sloCfg := slo.Config{
			OnTrip: func(tp slo.Trip) {
				logger.Warn("slo watchdog tripped",
					slog.String("objective", tp.Objective),
					slog.String("endpoint", tp.Endpoint),
					slog.Float64("fast_burn", tp.FastBurn),
					slog.Float64("slow_burn", tp.SlowBurn))
			},
		}
		srvOpts = append(srvOpts, server.WithSLO(sloCfg, objectives...))
	}

	srv := server.New(api, srvOpts...)
	handler := srv.Handler()
	httpSrv := &http.Server{
		Addr:              opt.addr,
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
		log.Printf("adserver listening on %s (shards=%d fsync=%s)",
			opt.addr, eng.Stats().Shards, policy)
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
		log.Printf("journal recovered: %d applied, %d skipped (%d duplicate, %d unknown ref, %d invalid)",
			stats.Applied, stats.Skipped, stats.SkippedDuplicate, stats.SkippedUnknownRef, stats.SkippedInvalid)
		if stats.Torn {
			log.Printf("journal: torn tail truncated, %d bytes discarded", stats.DiscardedBytes)
		}
		// The head and the records never overlap, so a skip is a write
		// that was rejected when it was made.
		for _, e := range stats.SkipErrors {
			log.Printf("journal: skipped entry: %s", e)
		}
	}

	if opt.demo {
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
	log.Printf("shutting down: draining for up to %v", opt.shutdownGrace)
	drainCtx, cancel := context.WithTimeout(context.Background(), opt.shutdownGrace)
	defer cancel()
	drainErr := httpSrv.Shutdown(drainCtx)
	if drainErr != nil {
		log.Printf("shutdown: drain incomplete: %v", drainErr)
	}
	// Drain order matters: the listener is down (no new submissions), so the
	// pipeline drains everything already acked through commit AND apply
	// BEFORE the journal is flushed and the new head captures final state.
	if err := ing.Close(); err != nil {
		log.Printf("shutdown: ingest drain: %v", err)
	} else {
		log.Print("ingest pipeline drained")
	}
	if jw != nil {
		if err := jw.Close(); err != nil {
			return fmt.Errorf("journal flush on shutdown: %w", err)
		}
		// Once writes have stopped, one atomic rename replaces head plus
		// records with a head that holds them all. A handler still running
		// could append after the cut and be lost with the old file, so an
		// incomplete drain leaves the file to be replayed instead.
		if drainErr != nil {
			log.Printf("state file %s left uncompacted: requests still in flight", opt.journal)
			return nil
		}
		if err := eng.SaveSnapshot(opt.journal); err != nil {
			return fmt.Errorf("final snapshot: %w", err)
		}
		log.Printf("state file %s compacted to a snapshot head", opt.journal)
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
