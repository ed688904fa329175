// Command adsoak is the crash-recovery soak harness: it runs adserver as a
// supervised child process, drives a replayable workload (campaign churn,
// celebrity fan-out, diurnal posting) through the public HTTP client, and
// kills the server over and over — SIGKILL at random moments, and
// surgically at named crash points armed via CAAR_CRASHPOINTS
// (journal.pre-fsync, journal.mid-replay during recovery itself,
// snapshot.pre-fsync / snapshot.post-fsync-pre-rename during shutdown).
//
// After every restart it machine-checks four invariants against its own
// acknowledged-write ledger via GET /v1/invariants:
//
//  1. no acked post or ad-add is lost,
//  2. campaign spend is conserved — never double-applied, never over budget,
//  3. no ad is served (or live) after its RemoveAd was acked,
//  4. memory stays bounded: windows, trace ring and candidate buffers within
//     capacity, heap flat across crash cycles.
//
// It finishes with a deliberate-fault self-test — replaying the journal
// twice into a fresh engine, the exact double-application the shutdown
// snapshot+reset protocol exists to prevent — and requires the budget
// checker to flag it. Results land in BENCH_SOAK.json; the exit status is
// non-zero if any invariant or the self-test fails.
//
// Usage (see also `make soak-smoke`):
//
//	go build -o bin/adserver ./cmd/adserver
//	go run ./cmd/adsoak -server-bin bin/adserver -kills 3 \
//	    -crashpoints journal.pre-fsync,snapshot.post-fsync-pre-rename,journal.mid-replay
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	caar "caar"
	"caar/client"
	"caar/journal"
	"caar/workload"
)

// cycleSpec is one scheduled crash: how the server started for this cycle is
// armed, and how it dies.
type cycleSpec struct {
	Label string // "sigkill" or the crash-point name
	Arm   string // CAAR_CRASHPOINTS value for this cycle's server start
	Crash string // "sigkill", "self", "sigterm" or "recovery"
}

// cycleReport is one recovery cycle in BENCH_SOAK.json.
type cycleReport struct {
	Crash               string                 `json:"crash"` // what killed the previous server
	CrashedDuringReplay bool                   `json:"crashed_during_replay,omitempty"`
	RecoveryMs          float64                `json:"recovery_ms,omitempty"`
	Replay              *journal.ReplaySummary `json:"replay,omitempty"`
	Invariants          []verdict              `json:"invariants,omitempty"`
	EventsSettled       int64                  `json:"events_settled"`
}

// benchReport is the BENCH_SOAK.json document.
type benchReport struct {
	Seed                int64           `json:"seed"`
	Users               int             `json:"users"`
	Ads                 int             `json:"ads"`
	Messages            int             `json:"messages"`
	SigkillCycles       int             `json:"sigkill_cycles"`
	CrashPointCycles    int             `json:"crashpoint_cycles"`
	Cycles              []cycleReport   `json:"cycles"`
	RecoveryMsP50       float64         `json:"recovery_ms_p50"`
	RecoveryMsP99       float64         `json:"recovery_ms_p99"`
	ReplayRecordsPerSec float64         `json:"replay_records_per_sec"`
	EventsSettled       int64           `json:"events_settled"`
	RecommendChecks     int64           `json:"recommend_checks"`
	ServedAfterRemove   int64           `json:"served_after_remove"`
	Memory              verdict         `json:"memory"`
	SelfTest            *selftestReport `json:"selftest,omitempty"`
	Pass                bool            `json:"pass"`
}

func main() {
	if err := run(); err != nil {
		log.Fatalf("adsoak: %v", err)
	}
}

func run() error {
	serverBin := flag.String("server-bin", "bin/adserver", "adserver binary to supervise")
	addr := flag.String("addr", "127.0.0.1:9784", "address the child listens on")
	dir := flag.String("dir", "", "working directory for journal/snapshot/logs (default: a temp dir)")
	out := flag.String("out", "BENCH_SOAK.json", "benchmark report path")
	seed := flag.Int64("seed", 1, "workload seed")
	users := flag.Int("users", 150, "workload users")
	ads := flag.Int("ads", 300, "workload ads")
	messages := flag.Int("messages", 4000, "workload posts")
	kills := flag.Int("kills", 3, "random SIGKILL cycles")
	crashpoints := flag.String("crashpoints",
		"journal.pre-fsync,snapshot.post-fsync-pre-rename,journal.mid-replay",
		"comma-separated named crash-point cycles (append :n to fire on the n-th hit)")
	eventsPerCycle := flag.Int("events-per-cycle", 250, "minimum settled events between crashes")
	window := flag.Int("window", 32, "server feed window size")
	readyTimeout := flag.Duration("ready-timeout", 60*time.Second, "max wait for readiness after a restart")
	selftest := flag.Bool("selftest", true, "run the double-replay self-test at the end")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	specs, named, err := buildSchedule(rng, *kills, *crashpoints)
	if err != nil {
		return err
	}

	wcfg := soakWorkloadConfig(*seed, *users, *ads, *messages)
	w, err := workload.Generate(wcfg)
	if err != nil {
		return err
	}

	workDir := *dir
	if workDir == "" {
		workDir, err = os.MkdirTemp("", "adsoak-*")
		if err != nil {
			return err
		}
	} else if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	log.Printf("work dir: %s", workDir)

	cli, err := client.New("http://"+*addr,
		client.WithHTTPClient(&http.Client{Timeout: 10 * time.Second}),
		client.WithRetry(client.RetryPolicy{MaxAttempts: 4, BaseDelay: 50 * time.Millisecond, MaxDelay: 2 * time.Second}),
		client.WithCircuitBreaker(client.BreakerPolicy{FailureThreshold: 5, Cooldown: 300 * time.Millisecond}),
	)
	if err != nil {
		return err
	}

	sup := &supervisor{
		bin:      *serverBin,
		addr:     *addr,
		journal:  filepath.Join(workDir, "soak.journal"),
		snapshot: filepath.Join(workDir, "soak.snapshot"),
		logPath:  filepath.Join(workDir, "server.log"),
		window:   *window,
	}

	led := newLedger()
	drv := newDriver(cli, w, led, *seed)
	ctx := context.Background()
	senderCtx, stopSender := context.WithCancel(ctx)
	defer stopSender()

	bench := benchReport{
		Seed: *seed, Users: *users, Ads: *ads, Messages: *messages,
		SigkillCycles: *kills, CrashPointCycles: named,
	}
	var reports []caar.InvariantReport
	var recoveries []time.Duration
	allPass := true
	lastCrash := "initial-start"

	for i := 0; i <= len(specs); i++ {
		arm := ""
		if i < len(specs) {
			arm = specs[i].Arm
		}
		if err := sup.start(arm); err != nil {
			return err
		}
		dur, replay, err := sup.waitReady(ctx, cli, *readyTimeout)
		if err != nil {
			var ce errChildExited
			if errors.As(err, &ce) && i < len(specs) && specs[i].Crash == "recovery" {
				// The armed mid-replay point killed recovery itself; the
				// next iteration restarts and must finish the interrupted
				// replay.
				log.Printf("cycle %d: %s fired during replay (as armed)", i, specs[i].Label)
				bench.Cycles = append(bench.Cycles, cycleReport{
					Crash: specs[i].Label, CrashedDuringReplay: true,
					EventsSettled: drv.attempted.Load(),
				})
				lastCrash = specs[i].Label
				continue
			}
			return fmt.Errorf("cycle %d (after %s): %w", i, lastCrash, err)
		}

		if i == 0 {
			log.Printf("loading: %d users, %d campaigns, %d initial ads",
				len(w.Users), len(w.Campaigns), len(w.InitialAds()))
			if err := drv.load(ctx); err != nil {
				return err
			}
			go drv.run(senderCtx)
		} else {
			recoveries = append(recoveries, dur)
			if replay != nil {
				bench.ReplayRecordsPerSec = replay.RecordsPerSec
			}
		}

		// Check on a quiet server: with the stream paused and no send in
		// flight the ledger cannot move under the report, and every acked
		// post gets its asynchronous apply before the counts are compared.
		drv.gate.Lock()
		snap := led.snapshot()
		state, err := settledInvariants(ctx, cli, snap.AckedPosts)
		drv.gate.Unlock()
		if err != nil {
			return fmt.Errorf("cycle %d: invariants: %w", i, err)
		}
		reports = append(reports, state)
		verdicts := []verdict{
			checkAckedWrites(state, snap),
			checkSpendConservation(state, snap),
			checkRemovedAds(state, snap),
		}
		entry := cycleReport{
			Crash:         lastCrash,
			RecoveryMs:    float64(dur.Milliseconds()),
			Replay:        replay,
			Invariants:    verdicts,
			EventsSettled: drv.attempted.Load(),
		}
		bench.Cycles = append(bench.Cycles, entry)
		for _, v := range verdicts {
			if !v.Pass {
				allPass = false
				log.Printf("cycle %d INVARIANT FAILED after %s: %s: %s", i, lastCrash, v.Name, v.Detail)
			}
		}
		log.Printf("cycle %d ready after %s (recovery %v): %d events settled, invariants %s",
			i, lastCrash, dur.Round(time.Millisecond), drv.attempted.Load(), verdictSummary(verdicts))

		if i == len(specs) {
			break
		}

		// Induce this cycle's crash.
		sp := specs[i]
		switch sp.Crash {
		case "sigkill":
			waitProgress(drv, drv.attempted.Load()+int64(*eventsPerCycle)+int64(rng.Intn(*eventsPerCycle)), 2*time.Minute)
			if err := sup.kill(); err != nil {
				return err
			}
		case "self":
			// The armed journal append point fires under traffic.
			if err := sup.waitExit(2 * time.Minute); err != nil {
				return fmt.Errorf("crash point %s never fired: %w", sp.Label, err)
			}
		case "sigterm":
			waitProgress(drv, drv.attempted.Load()+int64(*eventsPerCycle), 2*time.Minute)
			// Graceful shutdown walks into the armed snapshot point.
			if err := sup.terminate(60 * time.Second); err != nil {
				return err
			}
		case "recovery":
			return fmt.Errorf("crash point %s did not fire during replay (journal too short?)", sp.Label)
		}
		lastCrash = sp.Label
		log.Printf("cycle %d: server down (%s)", i, sp.Label)
	}

	// Quiesce traffic, then close out the run.
	stopSender()
	select {
	case <-drv.done:
	case <-time.After(30 * time.Second):
		return fmt.Errorf("traffic driver did not stop")
	}

	bench.EventsSettled = drv.attempted.Load()
	bench.RecommendChecks = drv.recommendChecks.Load()
	bench.ServedAfterRemove = drv.servedRemoved.Load()
	if bench.ServedAfterRemove > 0 {
		allPass = false
		log.Printf("INVARIANT FAILED: %d recommendations served acked-removed ads", bench.ServedAfterRemove)
	}
	bench.Memory = checkMemoryCeiling(reports)
	if !bench.Memory.Pass {
		allPass = false
		log.Printf("INVARIANT FAILED: %s: %s", bench.Memory.Name, bench.Memory.Detail)
	}
	bench.RecoveryMsP50, bench.RecoveryMsP99 = percentiles(recoveries)

	if *selftest {
		st, err := runSelfTest(sup.journal, workDir, *window, led.snapshot())
		if err != nil {
			return err
		}
		bench.SelfTest = &st
		if !st.Caught {
			allPass = false
			log.Printf("SELF-TEST FAILED: %s", st.Detail)
		} else {
			log.Printf("self-test: double replay caught (%s)", st.Detail)
		}
	}

	// Final graceful shutdown: drain, snapshot, journal reset.
	if err := sup.terminate(60 * time.Second); err != nil {
		return err
	}

	bench.Pass = allPass
	if err := writeJSON(*out, bench); err != nil {
		return err
	}
	log.Printf("report written to %s", *out)
	if !allPass {
		return fmt.Errorf("soak FAILED (%d cycles; see %s and %s)", len(bench.Cycles), *out, sup.logPath)
	}
	log.Printf("soak PASSED: %d recovery cycles (p50 %.0fms, p99 %.0fms), %d events, all invariants held",
		len(recoveries), bench.RecoveryMsP50, bench.RecoveryMsP99, bench.EventsSettled)
	if *dir == "" {
		os.RemoveAll(workDir)
	}
	return nil
}

// soakWorkloadConfig scales the default workload to soak size with every
// churn extension on. The campaign budget is sized so total expected spend
// stays well under half the pacing-released budget: the double-replay
// self-test then produces genuine over-spend instead of being clipped by
// the pacing cap.
func soakWorkloadConfig(seed int64, users, ads, messages int) workload.Config {
	c := workload.DefaultConfig()
	c.Seed = seed
	c.Users = users
	c.Ads = ads
	c.Messages = messages
	c.AvgFollowees = 8
	c.Topics = 20
	c.Vocab = 2000
	c.TermsPerTopic = 50
	c.Campaigns = 6
	// ≈ messages/ImpressionEvery impressions at mean bid ~0.5, spread over
	// the campaigns, then ~4× headroom.
	c.CampaignBudget = float64(messages) / 4 * 0.5 / 6 * 4
	c.AdChurnFrac = 0.15
	c.AdRemoveFrac = 0.10
	c.ImpressionEvery = 4
	c.Celebrities = 3
	c.CelebrityFollowFrac = 0.4
	c.RenderText = true
	return c
}

// buildSchedule interleaves random SIGKILL cycles with the named
// crash-point cycles. The first cycle is always a plain SIGKILL so the load
// phase runs on an unarmed server.
func buildSchedule(rng *rand.Rand, kills int, crashpoints string) ([]cycleSpec, int, error) {
	if kills < 1 {
		return nil, 0, fmt.Errorf("adsoak: need at least one SIGKILL cycle")
	}
	var named []cycleSpec
	for _, raw := range strings.Split(crashpoints, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		sp := cycleSpec{Label: name, Arm: name}
		base := name
		if i := strings.IndexByte(name, ':'); i >= 0 {
			base = name[:i]
		}
		switch {
		case base == "journal.mid-replay":
			sp.Crash = "recovery"
			if base == name {
				sp.Arm = name + ":25" // die after the 25th replayed record
			}
		case strings.HasPrefix(base, "snapshot."):
			sp.Crash = "sigterm"
		case base == "journal.pre-fsync":
			sp.Crash = "self"
			if base == name {
				// Fire on a random append so the kill lands mid-traffic.
				sp.Arm = fmt.Sprintf("%s:%d", name, 30+rng.Intn(120))
			}
		default:
			return nil, 0, fmt.Errorf("adsoak: unknown crash point %q", name)
		}
		named = append(named, sp)
	}
	specs := []cycleSpec{{Label: "sigkill", Crash: "sigkill"}}
	remainingKills := kills - 1
	for _, n := range named {
		specs = append(specs, n)
		if remainingKills > 0 {
			specs = append(specs, cycleSpec{Label: "sigkill", Crash: "sigkill"})
			remainingKills--
		}
	}
	for ; remainingKills > 0; remainingKills-- {
		specs = append(specs, cycleSpec{Label: "sigkill", Crash: "sigkill"})
	}
	return specs, len(named), nil
}

// waitProgress blocks until the driver settles target events, finishes the
// stream, or the timeout expires — crash timing rides real traffic.
func waitProgress(d *driver, target int64, timeout time.Duration) {
	deadline := time.Now().Add(timeout)
	for d.attempted.Load() < target && time.Now().Before(deadline) {
		select {
		case <-d.done:
			return
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// fetchInvariants retries the raw (no-retry) invariant fetch a few times —
// right after readiness the listener can still drop a connection.
func fetchInvariants(ctx context.Context, cli *client.Client) (caar.InvariantReport, error) {
	var last error
	for attempt := 0; attempt < 5; attempt++ {
		cctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		rep, err := cli.Invariants(cctx)
		cancel()
		if err == nil {
			return rep, nil
		}
		last = err
		time.Sleep(200 * time.Millisecond)
	}
	return caar.InvariantReport{}, last
}

// applyDeadline bounds how long an acked post may stay unapplied on a quiet
// server: one still missing after it is lost.
const applyDeadline = 5 * time.Second

// settledInvariants polls the invariant report until it shows at least
// ackedPosts applied or applyDeadline passes; the checks judge the last
// report either way.
func settledInvariants(ctx context.Context, cli *client.Client, ackedPosts int) (caar.InvariantReport, error) {
	deadline := time.Now().Add(applyDeadline)
	for {
		rep, err := fetchInvariants(ctx, cli)
		if err != nil || rep.PostsDelivered >= uint64(ackedPosts) || time.Now().After(deadline) {
			return rep, err
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func verdictSummary(vs []verdict) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		mark := "ok"
		if !v.Pass {
			mark = "FAIL"
		}
		parts[i] = v.Name + "=" + mark
	}
	return strings.Join(parts, " ")
}

func percentiles(ds []time.Duration) (p50, p99 float64) {
	if len(ds) == 0 {
		return 0, 0
	}
	sorted := append([]time.Duration(nil), ds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(sorted)-1))
		return float64(sorted[i].Milliseconds())
	}
	return at(0.50), at(0.99)
}

func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}
