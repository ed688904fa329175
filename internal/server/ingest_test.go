package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	caar "caar"
	"caar/ingest"
	"caar/journal"
)

// fakeQueue scripts the ingest pipeline's answer so the HTTP mapping can be
// tested without a real ring, journal or committer.
type fakeQueue struct {
	err    error
	posts  int
	checks int
}

func (q *fakeQueue) SubmitPost(author, text string, at time.Time) error {
	q.posts++
	return q.err
}

func (q *fakeQueue) SubmitCheckIn(user string, lat, lng float64, at time.Time) error {
	q.checks++
	return q.err
}

// TestIngestRouting: with WithIngest configured, posts and check-ins go to
// the queue (not the synchronous engine path) and a nil ack maps to 204.
func TestIngestRouting(t *testing.T) {
	eng := testEngine(t)
	q := &fakeQueue{}
	srv := New(eng, WithIngest(q))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/posts", "application/json",
		strings.NewReader(`{"author":"alice","text":"hello"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("ingest post: %d, want 204", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/checkins", "application/json",
		strings.NewReader(`{"user":"alice","lat":1.5,"lng":1.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("ingest check-in: %d, want 204", resp.StatusCode)
	}
	if q.posts != 1 || q.checks != 1 {
		t.Fatalf("queue saw %d posts, %d check-ins; want 1 and 1", q.posts, q.checks)
	}
	// The queue, not the engine, owns the write: nothing was applied.
	if got := eng.Stats().PostsDelivered; got != 0 {
		t.Fatalf("post bypassed the ingest queue: %d delivered", got)
	}
}

// TestIngestQueueFullMaps429: ErrQueueFull is backpressure, not a client
// error — 429 with a Retry-After hint, same shape as admission control.
func TestIngestQueueFullMaps429(t *testing.T) {
	srv := New(testEngine(t), WithIngest(&fakeQueue{err: ingest.ErrQueueFull}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/posts", "application/json",
		strings.NewReader(`{"author":"alice","text":"burst"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("full ring: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
}

// TestIngestValidationErrorsKeepEngineMapping: the pipeline re-derives the
// sync path's rejections at submission time; they must map to the same
// statuses the synchronous handler produces.
func TestIngestValidationErrorsKeepEngineMapping(t *testing.T) {
	srv := New(testEngine(t), WithIngest(&fakeQueue{err: caar.ErrUnknownUser}))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/posts", "application/json",
		strings.NewReader(`{"author":"ghost","text":"boo"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown user via ingest: %d, want 404", resp.StatusCode)
	}
}

// slowJournal delays every group commit on a real writer, standing in for a
// disk whose fsync cannot keep up with the offered burst.
type slowJournal struct{ w *journal.Writer }

func (s slowJournal) AppendBatch(entries []journal.Entry) error {
	time.Sleep(4 * time.Millisecond)
	return s.w.AppendBatch(entries)
}

func (s slowJournal) SyncPending() error { return s.w.SyncPending() }

// TestIngestEndToEndThroughRealPipeline is the backpressure drill over the
// real stack — server, a tiny ring, a slow file-backed journal behind
// journal.Logged: a concurrent burst is partly acked and partly shed with
// 429 + Retry-After, every shed post lands on retry, and once Close has
// drained the applier /v1/invariants accounts for exactly the acked posts,
// with the impression op the only apply-first one. Replaying the journal into
// a fresh engine reproduces the count: the acks were backed by the log.
func TestIngestEndToEndThroughRealPipeline(t *testing.T) {
	eng := testEngine(t)
	jf, err := os.Create(filepath.Join(t.TempDir(), "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer jf.Close()
	jw := journal.NewFileWriter(jf, journal.SyncAlways, 0)
	p := ingest.New(eng, slowJournal{jw}, nil, ingest.Config{QueueSize: 8, MaxBatch: 4})
	ts := httptest.NewServer(New(journal.NewLogged(eng, jw), WithIngest(p)).Handler())
	defer ts.Close()

	post := func(i int) (status int, retryAfter string) {
		resp, err := http.Post(ts.URL+"/v1/posts", "application/json",
			strings.NewReader(fmt.Sprintf(`{"author":"alice","text":"burst message %d through the ring"}`, i)))
		if err != nil {
			t.Error(err)
			return 0, ""
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header.Get("Retry-After")
	}

	const burst = 48 // six times the ring, while each commit crawls
	statuses := make([]int, burst)
	hints := make([]string, burst)
	var wg sync.WaitGroup
	for i := range burst {
		wg.Add(1)
		go func() {
			defer wg.Done()
			statuses[i], hints[i] = post(i)
		}()
	}
	wg.Wait()

	acked, shed := 0, 0
	for i, status := range statuses {
		switch status {
		case http.StatusNoContent:
			acked++
		case http.StatusTooManyRequests:
			shed++
			if hints[i] == "" {
				t.Errorf("post %d shed without a Retry-After hint", i)
			}
			// Retry like a client honouring the hint until the ring has room.
			deadline := time.Now().Add(10 * time.Second)
			for status != http.StatusNoContent {
				if time.Now().After(deadline) {
					t.Fatalf("post %d still shed after the burst ended: the ring never drained", i)
				}
				time.Sleep(2 * time.Millisecond)
				if status, _ = post(i); status != http.StatusNoContent && status != http.StatusTooManyRequests {
					t.Fatalf("retry of post %d: status %d", i, status)
				}
			}
			acked++
		default:
			t.Fatalf("burst post %d: status %d, want 204 or 429", i, status)
		}
	}
	if shed == 0 || shed == burst {
		t.Fatalf("%d of %d burst posts shed; want some acked and some shed", shed, burst)
	}

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/invariants")
	if err != nil {
		t.Fatal(err)
	}
	var rep caar.InvariantReport
	err = json.NewDecoder(resp.Body).Decode(&rep)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PostsDelivered != uint64(acked) {
		t.Fatalf("%d posts acked but /v1/invariants reports %d delivered", acked, rep.PostsDelivered)
	}
	if len(rep.ApplyFirstOps) != 1 || rep.ApplyFirstOps[0] != string(journal.OpImpression) {
		t.Fatalf("apply-first ops = %v, want exactly [%s]", rep.ApplyFirstOps, journal.OpImpression)
	}

	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := jf.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	recovered := testEngine(t)
	stats, err := journal.Replay(jf, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != acked || stats.Skipped != 0 {
		t.Fatalf("replay applied %d, skipped %d; want %d applied", stats.Applied, stats.Skipped, acked)
	}
	if got := recovered.Stats().PostsDelivered; got != uint64(acked) {
		t.Fatalf("replayed engine delivered %d posts, acked %d", got, acked)
	}
}
