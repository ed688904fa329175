package server

import (
	"context"
	"errors"
	"io"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	caar "caar"
	"caar/client"
	"caar/internal/faultinject"
	"caar/journal"
	"caar/metrics"
	"caar/obs/trace"
)

// Chaos-style integration tests: the full serving path (engine → journal →
// HTTP server → Go client) is driven through the fault-injection harness
// and must come out the other side consistent.

// TestChaosPanicMidRequest: scenario (1) of the resilience acceptance — a
// handler panic yields one failed request, the process keeps serving, and
// the same client continues without manual intervention.
func TestChaosPanicMidRequest(t *testing.T) {
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	srv := New(panicAPI{eng}, WithLogger(log.New(io.Discard, "", 0)))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cl, err := client.New(ts.URL,
		client.WithRetry(client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// The poisoned request fails with a 500, not a hung or dropped
	// connection.
	err = cl.Post(ctx, "alice", "trigger", time.Now())
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != 500 {
		t.Fatalf("poisoned request: %v, want APIError 500", err)
	}

	// The same client keeps working against the same server.
	if err := cl.AddUser(ctx, "bob"); err != nil {
		t.Fatalf("server did not survive the panic: %v", err)
	}
	if _, err := cl.Recommend(ctx, "alice", 3, time.Now()); err != nil {
		t.Fatalf("recommend after panic: %v", err)
	}
	if got := srv.Health().Panics; got != 1 {
		t.Fatalf("panic counter = %d, want 1", got)
	}
}

// TestChaosCrashMidAppendThenRecover: scenario (2) — the journal device
// dies mid-record (the torn-write pattern of kill -9), the server is
// replaced, and a restart with journal.Recover loses nothing that was
// acknowledged before the tear.
func TestChaosCrashMidAppendThenRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}

	// The disk accepts ~5 records then tears the next one mid-write.
	pw := &faultinject.PartialWriter{W: f, Budget: 340}
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	logged := journal.NewLogged(eng, journal.NewWriter(pw))
	ts := httptest.NewServer(New(logged).Handler())

	cl, err := client.New(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	// Drive mutations until the torn write surfaces. Every acknowledged
	// call is durable in the journal prefix before the tear.
	type op func() error
	ops := []op{
		func() error { return cl.AddUser(ctx, "alice") },
		func() error { return cl.AddUser(ctx, "bob") },
		func() error { return cl.Follow(ctx, "alice", "bob") },
	}
	for i := 0; len(ops) < 40; i++ {
		i := i
		ops = append(ops, func() error {
			return cl.Post(ctx, "bob", "marathon espresso update "+time.Duration(i).String(), t0chaos.Add(time.Duration(i)*time.Minute))
		})
	}
	acked := 0
	crashed := false
	for _, o := range ops {
		if err := o(); err != nil {
			// The journal failure must surface as a 503, not a 4xx.
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.StatusCode != 503 {
				t.Fatalf("torn append surfaced as %v, want APIError 503", err)
			}
			crashed = true
			break
		}
		acked++
	}
	ts.Close()
	if !crashed {
		t.Fatalf("journal never tore (budget too high?); acked %d", acked)
	}
	if acked == 0 {
		t.Fatal("journal tore before any op was acknowledged (budget too low)")
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": fresh engine, recover the journal in place.
	f2, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close()
	eng2, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	stats, err := journal.Recover(f2, eng2)
	if err != nil {
		t.Fatalf("recovery refused to start: %v", err)
	}
	if !stats.Torn {
		t.Fatal("torn tail not detected on recovery")
	}
	// Zero data loss up to the last complete record: every acknowledged op
	// replays. (The torn op was never acknowledged.)
	if stats.Applied != acked {
		t.Fatalf("recovered %d ops, want %d acknowledged", stats.Applied, acked)
	}
	if stats.Skipped != 0 {
		t.Fatalf("replay skipped %d ops: %v", stats.Skipped, stats.SkipErrors)
	}

	// The recovered server resumes serving AND appending on the same file.
	logged2 := journal.NewLogged(eng2, journal.NewFileWriter(f2, journal.SyncAlways, 0))
	ts2 := httptest.NewServer(New(logged2).Handler())
	defer ts2.Close()
	cl2, err := client.New(ts2.URL,
		client.WithRetry(client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	if err := cl2.Post(ctx, "bob", "back from the dead", t0chaos.Add(time.Hour)); err != nil {
		t.Fatalf("post after recovery: %v", err)
	}
	if _, err := cl2.Recommend(ctx, "alice", 3, t0chaos.Add(time.Hour)); err != nil {
		t.Fatalf("recommend after recovery: %v", err)
	}

	// The resumed journal replays cleanly end to end.
	if _, err := f2.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	eng3, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	finalStats, err := journal.Replay(f2, eng3)
	if err != nil {
		t.Fatal(err)
	}
	if finalStats.Torn || finalStats.Applied != acked+1 {
		t.Fatalf("final replay stats = %+v, want %d applied and no tear", finalStats, acked+1)
	}
}

var t0chaos = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// delayAPI holds every recommend (RecommendTraced is the call the handler
// makes) for a fixed duration, simulating an engine at capacity.
type delayAPI struct {
	API
	delay time.Duration
}

func (d *delayAPI) RecommendTraced(user string, k int, at time.Time, p caar.ServingPolicy, treq caar.TraceRequest) ([]caar.Recommendation, *trace.Trace, error) {
	time.Sleep(d.delay)
	return d.API.RecommendTraced(user, k, at, p, treq)
}

// TestChaosOverloadShedsAndDrains: scenario (3) — sustained overload is
// shed with 429 while admitted requests keep bounded latency, and
// retrying clients all eventually succeed once capacity frees up.
func TestChaosOverloadShedsAndDrains(t *testing.T) {
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddUser("alice"); err != nil {
		t.Fatal(err)
	}
	const maxInFlight = 4
	srv := New(&delayAPI{API: eng, delay: 5 * time.Millisecond},
		WithMaxInFlight(maxInFlight))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const workers = 16
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		latencies metrics.Samples
		failures  int
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := client.New(ts.URL,
				client.WithRetry(client.RetryPolicy{
					MaxAttempts: 10,
					BaseDelay:   2 * time.Millisecond,
					MaxDelay:    20 * time.Millisecond,
				}))
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 2; i++ {
				start := time.Now()
				_, err := cl.Recommend(context.Background(), "alice", 3, t0chaos)
				elapsed := time.Since(start)
				mu.Lock()
				if err != nil {
					failures++
				} else {
					latencies.Observe(elapsed)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if failures != 0 {
		t.Fatalf("%d requests never succeeded despite retries", failures)
	}
	health := srv.Health()
	if health.Shed == 0 {
		t.Fatal("overload never shed load — MaxInFlight not exercised")
	}
	if health.InFlight != 0 {
		t.Fatalf("in-flight count leaked: %d", health.InFlight)
	}

	// p99 end-to-end latency stays bounded: shed responses return instantly,
	// admitted requests hold the engine for only ~5ms, and the client's 1s
	// Retry-After rounds clear the backlog within a couple of cycles — so
	// nothing should approach the 10-attempt worst case.
	p99 := latencies.Quantile(0.99)
	if p99 > 5*time.Second {
		t.Fatalf("p99 latency %v unbounded under overload", p99)
	}
}
