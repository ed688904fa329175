package journal

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"
	"time"

	caar "caar"
)

var t0 = time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC)

// framed renders raw payloads as a log: one checksummed frame per payload,
// laid out as Append writes them. Payloads need not be valid entries.
func framed(payloads ...string) string {
	var sb strings.Builder
	for _, p := range payloads {
		fmt.Fprintf(&sb, "%s%d %08x %s\n", framePrefix, len(p), crc32.Checksum([]byte(p), castagnoli), p)
	}
	return sb.String()
}

func newEngine(t *testing.T) *caar.Engine {
	t.Helper()
	eng, err := caar.Open(caar.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// driveLogged applies a representative sequence of operations through a
// Logged wrapper.
func driveLogged(t *testing.T, l *Logged) {
	t.Helper()
	steps := []func() error{
		func() error { return l.AddUser("alice") },
		func() error { return l.AddUser("bob") },
		func() error { return l.Follow("alice", "bob") },
		func() error {
			return l.AddCampaign("spring", 100, t0.Add(-time.Hour), t0.Add(23*time.Hour))
		},
		func() error {
			return l.AddAd(caar.Ad{ID: "shoes", Text: "marathon running shoes", Campaign: "spring", Bid: 0.4})
		},
		func() error {
			return l.AddAd(caar.Ad{ID: "cafe", Text: "espresso downtown", Bid: 0.3,
				Target: &caar.Target{Lat: 1.5, Lng: 1.5, RadiusKm: 25}})
		},
		func() error { return l.CheckIn("alice", 1.5, 1.5, t0) },
		func() error { return l.Post("bob", "marathon day with espresso", t0) },
		func() error { _, err := l.ServeImpression("", "shoes", t0); return err },
		func() error { return l.AddAd(caar.Ad{ID: "tmp", Text: "temporary promo", Bid: 0.2}) },
		func() error { return l.RemoveAd("tmp") },
		func() error { return l.Unfollow("alice", "bob") },
		func() error { return l.Follow("alice", "bob") },
	}
	for i, step := range steps {
		if err := step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestJournalReplayReproducesEngine(t *testing.T) {
	var log bytes.Buffer
	live := NewLogged(newEngine(t), NewWriter(&log))
	driveLogged(t, live)

	recovered := newEngine(t)
	stats, err := Replay(&log, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 0 || stats.Torn {
		t.Fatalf("replay stats = %+v", stats)
	}
	if stats.Applied != 13 {
		t.Fatalf("applied %d entries, want 13", stats.Applied)
	}

	a := live.Stats()
	b := recovered.Stats()
	if a.Users != b.Users || a.Ads != b.Ads || a.FollowEdges != b.FollowEdges {
		t.Fatalf("state mismatch: live %+v vs recovered %+v", a, b)
	}

	// The replay also recovered the feed context: recommendations match.
	at := t0.Add(time.Minute)
	ra, err := live.Recommend("alice", 3, at)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := recovered.Recommend("alice", 3, at)
	if err != nil {
		t.Fatal(err)
	}
	if len(ra) != len(rb) {
		t.Fatalf("rec lengths differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i].AdID != rb[i].AdID {
			t.Fatalf("rank %d: %s vs %s", i, ra[i].AdID, rb[i].AdID)
		}
	}
}

func TestReplayToleratesTornTail(t *testing.T) {
	var log bytes.Buffer
	live := NewLogged(newEngine(t), NewWriter(&log))
	driveLogged(t, live)
	// Simulate a crash mid-append: chop the final line in half.
	raw := log.Bytes()
	torn := raw[:len(raw)-10]

	recovered := newEngine(t)
	stats, err := Replay(bytes.NewReader(torn), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Torn {
		t.Fatal("torn tail not detected")
	}
	if stats.Applied != 12 {
		t.Fatalf("applied %d, want 12 (all but the torn line)", stats.Applied)
	}
}

func TestReplayRejectsMidStreamCorruption(t *testing.T) {
	good := framed(`{"op":"add_user","user":"a"}`)
	bad := `{"op":"add_user","user` // corrupt, NOT final
	log := good + bad + "\n" + good
	_, err := Replay(strings.NewReader(log), newEngine(t))
	if err == nil {
		t.Fatal("mid-stream corruption accepted")
	}
}

func TestReplaySkipsConflicts(t *testing.T) {
	log := framed(
		`{"op":"add_user","user":"a"}`,
		`{"op":"add_user","user":"a"}`,                  // duplicate: skipped
		`{"op":"follow","user":"a","followee":"ghost"}`, // unknown: skipped
	)
	eng := newEngine(t)
	stats, err := Replay(strings.NewReader(log), eng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 1 || stats.Skipped != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if eng.Stats().Users != 1 {
		t.Fatal("user not applied")
	}
}

func TestReplayUnknownOpSkipped(t *testing.T) {
	log := framed(`{"op":"frobnicate"}`)
	stats, err := Replay(strings.NewReader(log), newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != 1 {
		t.Fatalf("stats = %+v", stats)
	}
}

func TestWriterRejectsEmptyOp(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	if err := w.Append(Entry{}); err == nil {
		t.Fatal("empty op accepted")
	}
}

// errWriter fails every write, simulating a full or failing disk under the
// journal.
type errWriter struct{}

func (errWriter) Write(p []byte) (int, error) { return 0, errors.New("disk full") }

// TestLoggedFailedAppendAppliesNothing is the regression test for the
// write-ordering bug: Logged used to apply the engine mutation before
// appending, so a failed append returned an error to the client while the
// mutation stayed live in memory — and silently vanished on restart.
// Journal-first means an append failure must leave the engine untouched.
func TestLoggedFailedAppendAppliesNothing(t *testing.T) {
	l := NewLogged(newEngine(t), NewWriter(errWriter{}))
	if err := l.AddUser("alice"); err == nil {
		t.Fatal("append to failing disk reported success")
	}
	if got := l.Stats().Users; got != 0 {
		t.Fatalf("failed append left mutation live in memory: %d users, want 0", got)
	}
	if err := l.AddCampaign("c", 1, t0, t0.Add(time.Hour)); err == nil {
		t.Fatal("append to failing disk reported success")
	}
	if err := l.AddAd(caar.Ad{ID: "x", Text: "sneaker promo", Bid: 0.1}); err == nil {
		t.Fatal("append to failing disk reported success")
	}
	if got := l.Stats().Ads; got != 0 {
		t.Fatalf("failed append left ad live in memory: %d ads, want 0", got)
	}
}

// TestLoggedJournalFirst pins down the write-ahead contract: rejected
// mutations may leave entries in the journal (the append happens before
// validation), but replaying that journal reproduces the exact same end
// state because the engine re-derives the same rejections as skips. The
// impression path is the documented exception — billability is decided by
// the engine, so unserved impressions are applied-first and never journaled.
func TestLoggedJournalFirst(t *testing.T) {
	var log bytes.Buffer
	l := NewLogged(newEngine(t), NewWriter(&log))
	if err := l.AddUser(""); err == nil {
		t.Fatal("empty handle accepted")
	}
	if err := l.Follow("x", "y"); err == nil {
		t.Fatal("unknown users accepted")
	}
	// The rejected ops were journaled (write-ahead), but they must replay as
	// clean skips, converging to the same state.
	recovered := newEngine(t)
	stats, err := Replay(bytes.NewReader(log.Bytes()), recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 0 || stats.Skipped != 2 {
		t.Fatalf("rejected ops did not replay as skips: %+v", stats)
	}
	if got := recovered.Stats().Users; got != 0 {
		t.Fatalf("replay of rejected ops created state: %d users", got)
	}

	// An unbillable impression is applied but not journaled.
	l.AddUser("u")
	l.AddCampaign("c", 0.1, t0, t0.Add(time.Hour))
	l.AddAd(caar.Ad{ID: "x", Text: "sneaker promo", Campaign: "c", Bid: 0.1})
	before := log.Len()
	served, err := l.ServeImpression("", "x", t0) // pacing: nothing released at start
	if err != nil || served {
		t.Fatalf("impression should be paced out: %v %v", served, err)
	}
	if log.Len() != before {
		t.Fatal("unserved impression journaled")
	}
	// And the wrapper declares the apply-first exception for the soak ledger.
	rep := l.Invariants()
	if len(rep.ApplyFirstOps) != 1 || rep.ApplyFirstOps[0] != string(OpImpression) {
		t.Fatalf("ApplyFirstOps = %v, want [%s]", rep.ApplyFirstOps, OpImpression)
	}
}

func TestJournalSyncHook(t *testing.T) {
	calls := 0
	w := NewWriter(&bytes.Buffer{})
	w.syncFn = func() error { calls++; return nil }
	if err := w.Append(Entry{Op: OpAddUser, User: "a"}); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("sync calls = %d", calls)
	}
}
