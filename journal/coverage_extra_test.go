package journal

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"time"

	caar "caar"
)

// failWriter errors after n successful writes, simulating a full or broken
// disk under the journal.
type failWriter struct {
	n int
}

func (f *failWriter) Write(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errors.New("disk full")
	}
	f.n--
	return len(p), nil
}

func TestAppendSurfacesWriteErrors(t *testing.T) {
	w := NewWriter(&failWriter{n: 0})
	if err := w.Append(Entry{Op: OpAddUser, User: "a"}); err == nil {
		t.Fatal("write error swallowed")
	}
	// Sync errors surface too.
	w2 := NewWriter(&bytes.Buffer{})
	w2.syncFn = func() error { return errors.New("fsync failed") }
	if err := w2.Append(Entry{Op: OpAddUser, User: "a"}); err == nil {
		t.Fatal("sync error swallowed")
	}
}

func TestLoggedRecordImpressionTo(t *testing.T) {
	var log bytes.Buffer
	l := NewLogged(newEngine(t), NewWriter(&log))
	l.AddUser("alice")
	l.AddAd(caar.Ad{ID: "x", Text: "sneaker sale", Bid: 0.5})
	served, err := l.RecordImpressionTo("alice", "x", t0)
	if err != nil || !served {
		t.Fatalf("impression: %v %v", served, err)
	}
	if !strings.Contains(log.String(), `"user":"alice"`) {
		t.Fatalf("per-user impression not journaled: %s", log.String())
	}

	// Replaying recovers frequency-capping state: one more impression puts
	// the recovered engine at cap 2.
	recovered := newEngine(t)
	if _, err := Replay(bytes.NewReader(log.Bytes()), recovered); err != nil {
		t.Fatal(err)
	}
	recovered.Post("alice", "sneaker shopping", t0)
	recs, err := recovered.RecommendWithPolicy("alice", 1, t0.Add(time.Minute),
		caar.ServingPolicy{FrequencyCap: 1, FrequencyWindow: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("frequency state lost across replay: %+v", recs)
	}
	// Errors propagate.
	if _, err := l.RecordImpressionTo("ghost", "x", t0); err == nil {
		t.Fatal("ghost user accepted")
	}
}

// TestLoggedMutatorFailuresReplayAsSkips drives the error branch of every
// journal-first mutator: the client sees the rejection, the write-ahead
// entry lands in the log anyway, and replaying the log re-derives every
// rejection as a clean skip — the recovered engine stays empty.
func TestLoggedMutatorFailuresReplayAsSkips(t *testing.T) {
	var log bytes.Buffer
	l := NewLogged(newEngine(t), NewWriter(&log))
	fails := []func() error{
		func() error { return l.Unfollow("a", "b") },
		func() error { return l.AddCampaign("c", -1, t0, t0) },
		func() error { return l.AddAd(caar.Ad{ID: "", Text: "x y", Bid: 0.5}) },
		func() error { return l.RemoveAd("nope") },
		func() error { return l.Post("ghost", "hi", t0) },
		func() error { return l.CheckIn("ghost", 1, 1, t0) },
	}
	for i, f := range fails {
		if err := f(); err == nil {
			t.Fatalf("case %d: invalid operation accepted", i)
		}
	}
	recovered := newEngine(t)
	stats, err := Replay(bytes.NewReader(log.Bytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 0 || stats.Skipped != len(fails) {
		t.Fatalf("rejected mutators did not replay as skips: %+v", stats)
	}
	st := recovered.Stats()
	if st.Users != 0 || st.Ads != 0 {
		t.Fatalf("replay of rejected mutators created state: %+v", st)
	}
}

func TestApplyMissingPayloads(t *testing.T) {
	eng := newEngine(t)
	for _, line := range []string{
		`{"op":"add_campaign"}`,
		`{"op":"add_ad"}`,
	} {
		stats, err := Replay(strings.NewReader(framed(line)), eng)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Skipped != 1 {
			t.Fatalf("%s: stats = %+v", line, stats)
		}
	}
}

func TestTruncateLongCorruption(t *testing.T) {
	long := `{"op":"add_user","user":"` + strings.Repeat("x", 200)
	log := long + "\n" + `{"op":"add_user","user":"ok"}`
	_, err := Replay(strings.NewReader(log), newEngine(t))
	if err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
	if len(err.Error()) > 200 {
		t.Fatalf("corruption error not truncated: %d bytes", len(err.Error()))
	}
}
