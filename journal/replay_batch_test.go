package journal

// Tests for replay's batches: posts and check-ins are buffered and applied
// through ApplyRuns, and nothing observable may depend on that.

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	caar "caar"
	"caar/internal/faultinject"
)

// mixedLog is a log whose data-plane runs are cut by every kind of
// control-plane record, cross the replayBatch boundary, and contain entries
// that fail on their own: a post by a user added only by the NEXT record (a
// flush on the wrong side of that record applies it), a duplicate user, a
// follow of nobody and a check-in outside the region.
func mixedLog() []Entry {
	rng := rand.New(rand.NewSource(28))
	texts := []string{"marathon running shoes", "espresso downtown", "sneaker sale today", "rain again"}
	var log []Entry
	users := make([]string, 8)
	for i := range users {
		users[i] = fmt.Sprintf("u%d", i)
		log = append(log, Entry{Op: OpAddUser, User: users[i]})
	}
	for i := range users {
		log = append(log, Entry{Op: OpFollow, User: users[i], Followee: users[(i+1)%len(users)]})
	}
	log = append(log,
		Entry{Op: OpAddCampaign, Campaign: &CampaignEntry{Name: "spring", Budget: 100, Start: t0.Add(-time.Hour), End: t0.Add(48 * time.Hour)}},
		Entry{Op: OpAddAd, Ad: &caar.Ad{ID: "shoes", Text: "marathon running shoes", Campaign: "spring", Bid: 0.4}},
		Entry{Op: OpAddAd, Ad: &caar.Ad{ID: "cafe", Text: "espresso downtown", Bid: 0.3}},
	)
	at := t0
	data := func() Entry {
		at = at.Add(time.Second)
		u := users[rng.Intn(len(users))]
		if rng.Intn(5) == 0 {
			return CheckInEntry(u, 1+rng.Float64(), 1+rng.Float64(), at)
		}
		return PostEntry(u, texts[rng.Intn(len(texts))], at)
	}
	control := []Entry{
		{Op: OpFollow, User: "u0", Followee: "u4"},
		{Op: OpUnfollow, User: "u1", Followee: "u2"},
		{Op: OpAddAd, Ad: &caar.Ad{ID: "sneakers", Text: "sneaker sale", Bid: 0.5}},
		{Op: OpRemoveAd, AdID: "cafe"},
		{Op: OpAddUser, User: "u0"},                      // duplicate
		{Op: OpFollow, User: "u0", Followee: "nobody"},   // unknown reference
		{Op: OpImpression, AdID: "shoes", At: t0},        // control plane to replay
		{Op: OpFollow, User: "u5", Followee: "u0"},       // reaches u5 only for later posts
		{Op: OpUnfollow, User: "u5", Followee: "u0"},     // and none after this
		{Op: OpAddAd, Ad: &caar.Ad{ID: "x", Text: "!!"}}, // invalid: nothing to index
	}
	for _, c := range control {
		for i, n := 0, 1+rng.Intn(40); i < n; i++ {
			log = append(log, data())
		}
		log = append(log, c)
	}
	// A post by a user the next record adds, inside a run.
	log = append(log, data(), PostEntry("late", "sneaker sale today", at), data(),
		Entry{Op: OpAddUser, User: "late"},
		Entry{Op: OpFollow, User: "u3", Followee: "late"},
		PostEntry("late", "marathon running shoes", at.Add(time.Second)),
		CheckInEntry("u2", 500, 500, at)) // outside the region
	// One run longer than two batches.
	for i := 0; i < 2*replayBatch+17; i++ {
		log = append(log, data())
	}
	return log
}

func encodeLog(t *testing.T, entries []Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBatchedReplayMatchesOneApplyAtATime replays a mixed log through replay
// and feeds the same records to a second engine one apply at a time: same
// ReplayStats, same Stats, same top-k for every user.
func TestBatchedReplayMatchesOneApplyAtATime(t *testing.T) {
	entries := mixedLog()
	raw := encodeLog(t, entries)

	batched := newEngine(t)
	got, err := Replay(bytes.NewReader(raw), batched)
	if err != nil {
		t.Fatal(err)
	}

	sequential := newEngine(t)
	want := ReplayStats{ValidBytes: int64(len(raw))}
	for _, e := range entries {
		if err := apply(sequential, e); err != nil {
			want.classify(err)
		} else {
			want.Applied++
		}
	}
	if want.SkippedDuplicate == 0 || want.SkippedUnknownRef < 2 || want.SkippedInvalid < 2 {
		t.Fatalf("the log should fail in every class and inside a run: %+v", want)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("replay stats\n got %+v\nwant %+v", got, want)
	}
	if g, w := batched.Stats(), sequential.Stats(); g != w {
		t.Fatalf("engine stats\n got %+v\nwant %+v", g, w)
	}
	at := t0.Add(2 * time.Hour)
	for _, u := range []string{"u0", "u1", "u2", "u3", "u4", "u5", "u6", "u7", "late"} {
		g, err := batched.Recommend(u, 3, at)
		if err != nil {
			t.Fatal(err)
		}
		w, err := sequential.Recommend(u, 3, at)
		if err != nil {
			t.Fatal(err)
		}
		if len(w) == 0 || !slices.Equal(g, w) {
			t.Fatalf("%s: top-k\n got %+v\nwant %+v", u, g, w)
		}
	}
	if g, w := batched.Stats(), sequential.Stats(); g != w {
		t.Fatalf("engine stats after the reads\n got %+v\nwant %+v", g, w)
	}
}

// TestRecoverTornRecordInsideABufferedRun tears the log in the middle of a
// run of posts: everything before the torn record applies, and the file is
// cut at the byte the torn record starts at.
func TestRecoverTornRecordInsideABufferedRun(t *testing.T) {
	head := []Entry{{Op: OpAddUser, User: "a"}, {Op: OpAddUser, User: "b"}, {Op: OpFollow, User: "b", Followee: "a"}}
	for i := 0; i < 10; i++ {
		head = append(head, PostEntry("a", "espresso downtown", t0.Add(time.Duration(i)*time.Second)))
	}
	valid := encodeLog(t, head)
	tail := encodeLog(t, []Entry{PostEntry("a", "never applied", t0.Add(time.Minute))})
	torn := append(append([]byte(nil), valid...), tail[:len(tail)/2]...)
	torn = append(torn, '\n')
	torn = append(torn, tail...) // a valid record after the torn one goes with it

	path := filepath.Join(t.TempDir(), "journal.log")
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	eng := newEngine(t)
	stats, err := Recover(f, eng)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Torn || stats.ValidBytes != int64(len(valid)) || stats.DiscardedBytes != int64(len(torn)-len(valid)) {
		t.Fatalf("stats %+v, want torn at byte %d of %d", stats, len(valid), len(torn))
	}
	if stats.Applied != len(head) || stats.Skipped != 0 || eng.Stats().PostsDelivered != 10 {
		t.Fatalf("applied %d (%d posts delivered), skipped %d; want all %d records before the tear",
			stats.Applied, eng.Stats().PostsDelivered, stats.Skipped, len(head))
	}
	if fi, err := f.Stat(); err != nil || fi.Size() != int64(len(valid)) {
		t.Fatalf("file is %d bytes after recovery (%v), want %d", fi.Size(), err, len(valid))
	}
}

// TestCrashMidReplayAppliesNoMoreThanItCounted arms the mid-replay crash point
// at n: buffering may leave fewer than n records applied when it fires, never
// more — a record is counted before it is buffered.
func TestCrashMidReplayAppliesNoMoreThanItCounted(t *testing.T) {
	entries := []Entry{{Op: OpAddUser, User: "a"}, {Op: OpAddUser, User: "b"}, {Op: OpFollow, User: "b", Followee: "a"}}
	for i := 0; i < 2*replayBatch+50; i++ {
		entries = append(entries, PostEntry("a", "espresso downtown", t0.Add(time.Duration(i)*time.Second)))
	}
	raw := encodeLog(t, entries)

	const n = replayBatch + 50
	type crashed struct{}
	faultinject.SetCrashAction(func(string) { panic(crashed{}) })
	defer faultinject.SetCrashAction(nil)
	if err := faultinject.ArmCrashPoints(fmt.Sprintf("%s:%d", CrashMidReplay, n)); err != nil {
		t.Fatal(err)
	}
	defer faultinject.ArmCrashPoints("") //nolint:errcheck // disarming cannot fail

	eng := newEngine(t)
	func() {
		defer func() {
			if r := recover(); r != (crashed{}) {
				t.Fatalf("replay ended with %v, want the armed crash", r)
			}
		}()
		Replay(bytes.NewReader(raw), eng) //nolint:errcheck // dies before it returns
	}()
	st := eng.Stats()
	applied := st.Users + st.FollowEdges + int(st.PostsDelivered)
	if st.PostsDelivered == 0 || applied >= n {
		t.Fatalf("%d records applied (%d posts) when the crash point fired at its hit %d: want some, and fewer than %d",
			applied, st.PostsDelivered, n, n)
	}
}
