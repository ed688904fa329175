package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	caar "caar"
	"caar/journal"
)

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

func newEngine(t testing.TB) *caar.Engine {
	t.Helper()
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := eng.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	return eng
}

// countingJournal wraps a real Writer, counting batches and optionally
// delaying or failing each commit.
type countingJournal struct {
	w       *journal.Writer
	batches atomic.Int64
	syncs   atomic.Int64
	delay   time.Duration
	fail    atomic.Bool
}

func (j *countingJournal) AppendBatch(entries []journal.Entry) error {
	if j.delay > 0 {
		time.Sleep(j.delay)
	}
	if j.fail.Load() {
		return fmt.Errorf("%w: sync: injected", journal.ErrDurability)
	}
	j.batches.Add(1)
	return j.w.AppendBatch(entries)
}

func (j *countingJournal) SyncPending() error {
	j.syncs.Add(1)
	return nil
}

func TestPipelineCommitsAppliesAndReplays(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	// A 1ms "fsync" makes submitters pile up behind the in-flight commit, so
	// group commit has something to group even on a fast machine.
	cj := &countingJournal{w: journal.NewWriter(&log), delay: time.Millisecond}
	p := New(eng, cj, nil, Config{QueueSize: 128, MaxBatch: 32})

	const n = 200
	var wg sync.WaitGroup
	var acked atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Retry on ErrQueueFull exactly as a client honoring 429 +
			// Retry-After would.
			for {
				var err error
				if i%4 == 3 {
					err = p.SubmitCheckIn("alice", 1.5, 1.5, t0)
				} else {
					err = p.SubmitPost("bob", fmt.Sprintf("update %d from the road", i), t0)
				}
				if errors.Is(err, ErrQueueFull) {
					time.Sleep(time.Millisecond)
					continue
				}
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				acked.Add(1)
				return
			}
		}(i)
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if acked.Load() != n {
		t.Fatalf("acked %d of %d", acked.Load(), n)
	}

	// Everything acked was applied by Close's drain.
	st := eng.Stats()
	if st.PostsDelivered != n-n/4 {
		t.Fatalf("posts delivered = %d, want %d", st.PostsDelivered, n-n/4)
	}
	if st.CheckIns != n/4 {
		t.Fatalf("check-ins = %d, want %d", st.CheckIns, n/4)
	}
	// Group commit actually grouped: far fewer batches than entries.
	if b := cj.batches.Load(); b >= n {
		t.Fatalf("no batching: %d batches for %d entries", b, n)
	}

	// And the journal replays to the same state — the ack is backed by the
	// log, not by memory.
	recovered, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := recovered.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := recovered.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	stats, err := journal.Replay(bytes.NewReader(log.Bytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != n || stats.Skipped != 0 {
		t.Fatalf("replay stats = %+v, want %d applied", stats, n)
	}
	if got := recovered.Stats().PostsDelivered; got != n-n/4 {
		t.Fatalf("replayed posts = %d, want %d", got, n-n/4)
	}
}

func TestPipelineQueueFullRejects(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	cj := &countingJournal{w: journal.NewWriter(&log), delay: 20 * time.Millisecond}
	p := New(eng, cj, nil, Config{QueueSize: 8, MaxBatch: 4})
	defer p.Close()

	const n = 120
	var wg sync.WaitGroup
	var full, ok atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := p.SubmitPost("bob", fmt.Sprintf("burst %d", i), t0)
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrQueueFull):
				full.Add(1)
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if full.Load() == 0 {
		t.Fatal("slow journal with a tiny ring never rejected — backpressure is not wired")
	}
	if ok.Load() == 0 {
		t.Fatal("every submit rejected — ring never drains")
	}
}

func TestPipelineJournalErrorAcksFailureAppliesNothing(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	cj := &countingJournal{w: journal.NewWriter(&log)}
	cj.fail.Store(true)
	p := New(eng, cj, nil, Config{QueueSize: 64, MaxBatch: 16})
	defer p.Close()

	err := p.SubmitPost("bob", "doomed", t0)
	if !errors.Is(err, journal.ErrDurability) {
		t.Fatalf("got %v, want ErrDurability", err)
	}
	if got := eng.Stats().PostsDelivered; got != 0 {
		t.Fatalf("failed commit was applied: %d posts", got)
	}
	if log.Len() != 0 {
		t.Fatal("failed commit reached the log buffer")
	}
}

func TestPipelineValidatesBeforeEnqueue(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	cj := &countingJournal{w: journal.NewWriter(&log)}
	p := New(eng, cj, nil, Config{})
	defer p.Close()

	if err := p.SubmitPost("ghost", "boo", t0); !errors.Is(err, caar.ErrUnknownUser) {
		t.Fatalf("unknown author: got %v, want ErrUnknownUser", err)
	}
	if err := p.SubmitCheckIn("ghost", 1, 1, t0); !errors.Is(err, caar.ErrUnknownUser) {
		t.Fatalf("unknown user: got %v, want ErrUnknownUser", err)
	}
	if err := p.SubmitCheckIn("alice", 99, 0, t0); err == nil {
		t.Fatal("out-of-region check-in accepted")
	}
	if log.Len() != 0 {
		t.Fatal("rejected submissions reached the journal")
	}
}

// TestUnencodableWriteFailsOnlyItself: a write the journal cannot encode — a
// NaN check-in, a post stamped in year 10000 — is refused at accept, so the
// well-formed posts queued beside it behind a slow commit are all acked.
// Accepted, it failed the group commit of every write batched with it.
func TestUnencodableWriteFailsOnlyItself(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	cj := &countingJournal{w: journal.NewWriter(&log), delay: 5 * time.Millisecond}
	p := New(eng, cj, nil, Config{})
	defer p.Close()

	future := time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)
	bad := []func() error{
		func() error { return p.SubmitCheckIn("alice", math.NaN(), 1, t0) },
		func() error { return p.SubmitPost("bob", "from the future", future) },
	}
	posts, badErrs := make([]error, 20), make([]error, len(bad))
	var wg sync.WaitGroup
	for i := range posts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			posts[i] = p.SubmitPost("bob", fmt.Sprintf("post %d", i), t0)
		}()
	}
	for i, submit := range bad {
		wg.Add(1)
		go func() {
			defer wg.Done()
			badErrs[i] = submit()
		}()
	}
	wg.Wait()
	for i, err := range posts {
		if err != nil {
			t.Errorf("well-formed post %d: %v", i, err)
		}
	}
	for i, err := range badErrs {
		if err == nil {
			t.Errorf("unencodable write %d acked", i)
		}
	}
}

func TestPipelineClosedRejects(t *testing.T) {
	eng := newEngine(t)
	p := New(eng, &countingJournal{w: journal.NewWriter(&bytes.Buffer{})}, nil, Config{})
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.SubmitPost("bob", "late", t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelineIdleTimerFlushesTail checks the satellite-4 wiring from the
// pipeline side: an idle committer periodically calls the journal's
// SyncPending so interval-policy records never sit unsynced waiting for the
// next append.
func TestPipelineIdleTimerFlushesTail(t *testing.T) {
	eng := newEngine(t)
	cj := &countingJournal{w: journal.NewWriter(&bytes.Buffer{})}
	p := New(eng, cj, nil, Config{IdleSync: 5 * time.Millisecond})
	defer p.Close()

	if err := p.SubmitPost("bob", "one post then silence", t0); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for cj.syncs.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("idle committer never flushed the journal tail")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineCloseMidBurstDrainRace closes the pipeline while a burst is
// still in flight and checks the shutdown contract under the race detector:
// every write acked before or during the drain survives to the engine AND
// the journal, no submitter is left blocked, and both background goroutines
// exit. Close returning proves the exits structurally: Close blocks on
// p.done, which only the applier closes, and the applier only exits when
// the committer has closed applyq on its own way out.
func TestPipelineCloseMidBurstDrainRace(t *testing.T) {
	eng := newEngine(t)
	var log bytes.Buffer
	// A small ring behind a slow journal keeps the burst mid-flight: some
	// submitters acked, some parked in the ring, some shedding, all racing
	// the closed flag when Close lands.
	cj := &countingJournal{w: journal.NewWriter(&log), delay: 200 * time.Microsecond}
	p := New(eng, cj, nil, Config{QueueSize: 16, MaxBatch: 8})

	const n = 300
	var wg sync.WaitGroup
	var acked, shed, closed atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := p.SubmitPost("bob", fmt.Sprintf("mid-burst %d", i), t0)
			switch {
			case err == nil:
				acked.Add(1)
			case errors.Is(err, ErrQueueFull):
				shed.Add(1)
			case errors.Is(err, ErrClosed):
				closed.Add(1)
			default:
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}

	// Pull the plug mid-burst: wait for proof the pipeline is live (a few
	// acks), not for the burst to finish.
	deadline := time.Now().Add(10 * time.Second)
	for acked.Load() < 10 {
		if time.Now().After(deadline) {
			t.Fatal("pipeline never acked the first writes")
		}
		time.Sleep(100 * time.Microsecond)
	}
	closeDone := make(chan struct{})
	go func() {
		defer close(closeDone)
		if err := p.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	}()

	wg.Wait() // no submitter may be left blocked on its ack
	select {
	case <-closeDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close never returned — committer or applier leaked")
	}

	if got := acked.Load() + shed.Load() + closed.Load(); got != n {
		t.Fatalf("accounted for %d of %d submitters", got, n)
	}
	if closed.Load()+shed.Load() == 0 {
		t.Log("note: every submit was acked; close landed after the burst")
	}

	// Every ack is backed by state: the engine saw exactly the acked posts…
	if got := eng.Stats().PostsDelivered; got != uint64(acked.Load()) {
		t.Fatalf("engine delivered %d posts, %d were acked", got, acked.Load())
	}
	// …and so does the journal, replayed into a fresh engine.
	recovered, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []string{"alice", "bob", "carol"} {
		if err := recovered.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := recovered.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	stats, err := journal.Replay(bytes.NewReader(log.Bytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != int(acked.Load()) || stats.Skipped != 0 {
		t.Fatalf("replay stats = %+v, want %d applied", stats, acked.Load())
	}

	// The committer is gone: a late submit fails fast instead of parking in
	// the ring forever.
	if err := p.SubmitPost("bob", "after close", t0); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: got %v, want ErrClosed", err)
	}
}
