package journal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"caar/obs"
)

// writeFixture journals a few entries into a temp file and returns the file
// path plus the byte offset of the start of each record.
func writeFixture(t *testing.T, entries []Entry) (string, []int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "journal.log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewFileWriter(f, SyncNever, 0)
	var offsets []int64
	for _, e := range entries {
		pos, err := f.Seek(0, os.SEEK_END)
		if err != nil {
			t.Fatal(err)
		}
		offsets = append(offsets, pos)
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path, offsets
}

func fixtureEntries() []Entry {
	return []Entry{
		{Op: OpAddUser, User: "alice"},
		{Op: OpAddUser, User: "bob"},
		{Op: OpFollow, User: "alice", Followee: "bob"},
		{Op: OpPost, User: "bob", Text: "marathon espresso", At: t0},
	}
}

// TestRecoverTruncatesTornTail cuts the final record mid-frame (a crash
// during append) and asserts Recover truncates exactly at the start of the
// torn record and leaves the file appendable.
func TestRecoverTruncatesTornTail(t *testing.T) {
	path, offsets := writeFixture(t, fixtureEntries())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last record: keep its first 7 bytes only.
	torn := raw[:offsets[3]+7]
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
	if !stats.Torn {
		t.Fatal("torn tail not detected")
	}
	if stats.Applied != 3 {
		t.Fatalf("applied %d, want 3", stats.Applied)
	}
	if stats.ValidBytes != offsets[3] {
		t.Fatalf("ValidBytes = %d, want %d (start of torn record)", stats.ValidBytes, offsets[3])
	}
	if stats.DiscardedBytes != 7 {
		t.Fatalf("DiscardedBytes = %d, want 7", stats.DiscardedBytes)
	}
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() != offsets[3] {
		t.Fatalf("file size after recover = %d, want %d", fi.Size(), offsets[3])
	}

	// The file is positioned at its end: appending resumes cleanly.
	w := NewFileWriter(f, SyncAlways, 0)
	if err := w.Append(Entry{Op: OpPost, User: "bob", Text: "recovered and writing again", At: t0}); err != nil {
		t.Fatal(err)
	}
	recovered := newEngine(t)
	if _, err := f.Seek(0, os.SEEK_SET); err != nil {
		t.Fatal(err)
	}
	stats2, err := Replay(f, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Applied != 4 || stats2.Torn {
		t.Fatalf("post-recovery replay stats = %+v", stats2)
	}
}

// TestRecoverDetectsBitFlip flips one byte inside the checksummed payload of
// the final record; the CRC catches it and recovery truncates at the start
// of that record.
func TestRecoverDetectsBitFlip(t *testing.T) {
	path, offsets := writeFixture(t, fixtureEntries())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a bit well inside the last record's JSON payload.
	raw[offsets[3]+20] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := Recover(f, newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Torn || stats.Applied != 3 {
		t.Fatalf("stats = %+v, want torn with 3 applied", stats)
	}
	if stats.ValidBytes != offsets[3] {
		t.Fatalf("ValidBytes = %d, want %d", stats.ValidBytes, offsets[3])
	}
}

// TestReplayStopsAtMidStreamBitFlip flips a byte in a non-final record:
// strict Replay must refuse rather than silently skip good data.
func TestReplayStopsAtMidStreamBitFlip(t *testing.T) {
	path, offsets := writeFixture(t, fixtureEntries())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[1]+15] ^= 0x01
	if _, err := Replay(bytes.NewReader(raw), newEngine(t)); err == nil {
		t.Fatal("mid-stream bit flip accepted by strict replay")
	}
}

// TestRecoverMidStreamCorruptionCutsTail asserts the documented (aggressive)
// recovery policy: everything from the first corrupt record on is
// discarded, even records that still verify after it.
func TestRecoverMidStreamCorruptionCutsTail(t *testing.T) {
	path, offsets := writeFixture(t, fixtureEntries())
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[offsets[2]+15] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := Recover(f, newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 2 || !stats.Torn {
		t.Fatalf("stats = %+v, want 2 applied + torn", stats)
	}
	if stats.ValidBytes != offsets[2] {
		t.Fatalf("ValidBytes = %d, want %d", stats.ValidBytes, offsets[2])
	}
	if fi, _ := f.Stat(); fi.Size() != offsets[2] {
		t.Fatalf("file not truncated to %d", offsets[2])
	}
}

// TestReplayRejectsUnframedRecord: a bare-JSON line carries no checksum, so
// it is what a torn frame is — a torn tail when final, an error when more
// data follows (FuzzRecoverTornTail covers Recover truncating at it).
func TestReplayRejectsUnframedRecord(t *testing.T) {
	bare := `{"op":"add_user","user":"b"}` + "\n"
	intact := framed(`{"op":"add_user","user":"a"}`)

	eng := newEngine(t)
	stats, err := Replay(strings.NewReader(intact+bare), eng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 1 || !stats.Torn || stats.ValidBytes != int64(len(intact)) || eng.Stats().Users != 1 {
		t.Fatalf("final unframed line: stats = %+v, users = %d; want 1 applied + torn", stats, eng.Stats().Users)
	}
	if _, err := Replay(strings.NewReader(bare+intact), newEngine(t)); err == nil {
		t.Fatal("unframed line followed by a record accepted")
	}
}

// TestReplayStatsClassification buckets skip errors by class and keeps the
// first few verbatim.
func TestReplayStatsClassification(t *testing.T) {
	log := framed(
		`{"op":"add_user","user":"a"}`,
		`{"op":"add_user","user":"a"}`,                  // duplicate
		`{"op":"follow","user":"a","followee":"ghost"}`, // unknown ref
		`{"op":"frobnicate"}`,                           // invalid
		`{"op":"add_campaign"}`,                         // invalid payload
	)
	stats, err := Replay(strings.NewReader(log), newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != 1 || stats.Skipped != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.SkippedDuplicate != 1 || stats.SkippedUnknownRef != 1 || stats.SkippedInvalid != 2 {
		t.Fatalf("classification = dup:%d unknown:%d invalid:%d",
			stats.SkippedDuplicate, stats.SkippedUnknownRef, stats.SkippedInvalid)
	}
	if len(stats.SkipErrors) != 4 {
		t.Fatalf("SkipErrors = %v", stats.SkipErrors)
	}
	if !strings.Contains(stats.SkipErrors[0], "duplicate") {
		t.Fatalf("first skip error %q not the duplicate", stats.SkipErrors[0])
	}
}

// TestSkipErrorsBounded keeps only the first maxSkipErrors messages.
func TestSkipErrorsBounded(t *testing.T) {
	log := strings.Repeat(framed(`{"op":"frobnicate"}`), maxSkipErrors+3)
	stats, err := Replay(strings.NewReader(log), newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Skipped != maxSkipErrors+3 {
		t.Fatalf("skipped = %d", stats.Skipped)
	}
	if len(stats.SkipErrors) != maxSkipErrors {
		t.Fatalf("SkipErrors length = %d, want %d", len(stats.SkipErrors), maxSkipErrors)
	}
}

// TestSyncPolicies exercises always / interval / never against a counting
// sync hook.
func TestSyncPolicies(t *testing.T) {
	newCounting := func(policy SyncPolicy, interval time.Duration) (*Writer, *int) {
		calls := 0
		w := NewWriter(&bytes.Buffer{})
		w.syncFn = func() error { calls++; return nil }
		w.policy = policy
		w.interval = interval
		return w, &calls
	}

	w, calls := newCounting(SyncAlways, 0)
	for range 3 {
		if err := w.Append(Entry{Op: OpAddUser, User: "a"}); err != nil {
			t.Fatal(err)
		}
	}
	if *calls != 3 {
		t.Fatalf("SyncAlways: %d sync calls, want 3", *calls)
	}

	w, calls = newCounting(SyncNever, 0)
	for range 3 {
		w.Append(Entry{Op: OpAddUser, User: "a"})
	}
	if *calls != 0 {
		t.Fatalf("SyncNever: %d sync calls, want 0", *calls)
	}
	// Flush syncs regardless of policy.
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if *calls != 1 {
		t.Fatalf("Flush under SyncNever: %d sync calls, want 1", *calls)
	}

	w, calls = newCounting(SyncIntervalPolicy, time.Minute)
	clock := t0
	w.now = func() time.Time { return clock }
	w.Append(Entry{Op: OpAddUser, User: "a"}) // first append always syncs
	clock = clock.Add(time.Second)
	w.Append(Entry{Op: OpAddUser, User: "b"}) // within interval: no sync
	clock = clock.Add(2 * time.Minute)
	w.Append(Entry{Op: OpAddUser, User: "c"}) // past interval: sync
	if *calls != 2 {
		t.Fatalf("SyncInterval: %d sync calls, want 2", *calls)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want SyncPolicy
	}{
		{"always", SyncAlways}, {"interval", SyncIntervalPolicy}, {"never", SyncNever},
	} {
		got, err := ParseSyncPolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() != tc.in {
			t.Fatalf("String() = %q, want %q", got.String(), tc.in)
		}
	}
	if _, err := ParseSyncPolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

// TestRecoverCleanLog leaves an intact log untouched.
func TestRecoverCleanLog(t *testing.T) {
	path, _ := writeFixture(t, fixtureEntries())
	before, _ := os.ReadFile(path)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stats, err := Recover(f, newEngine(t))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Torn || stats.Applied != 4 || stats.DiscardedBytes != 0 {
		t.Fatalf("stats = %+v", stats)
	}
	after, _ := os.ReadFile(path)
	if !bytes.Equal(before, after) {
		t.Fatal("clean log modified by recovery")
	}
}

// tearOnce writes through to buf, except that its tear-th write lands only
// its first half and fails — a disk that fills mid-frame and frees up again.
type tearOnce struct {
	buf     bytes.Buffer
	n, tear int
}

func (w *tearOnce) Write(p []byte) (int, error) {
	if w.n++; w.n == w.tear {
		k, _ := w.buf.Write(p[:len(p)/2])
		return k, errors.New("short write")
	}
	return w.buf.Write(p)
}

// TestDurabilityFailureIsSticky: the first failed write or fsync poisons the
// writer. A short write leaves a torn frame mid-file, and Recover cuts every
// frame behind it, so an append acknowledged after the tear would be lost;
// after a failed fsync the kernel may have dropped the dirty pages. Every
// later append is refused, Degraded and caar_journal_degraded stay set, and
// whatever was acknowledged survives recovery.
func TestDurabilityFailureIsSticky(t *testing.T) {
	out := &tearOnce{tear: 2}
	w := NewWriter(out)
	m := NewMetrics(obs.NewRegistry())
	w.SetMetrics(m)
	var acked []string
	for _, u := range []string{"a", "b", "c"} {
		if err := w.Append(Entry{Op: OpAddUser, User: u}); err == nil {
			acked = append(acked, u)
		} else if !errors.Is(err, ErrDurability) {
			t.Fatalf("append %s: %v, want ErrDurability", u, err)
		}
	}
	if !slices.Equal(acked, []string{"a"}) {
		t.Fatalf("acknowledged %v, want only the append before the torn write", acked)
	}
	if bad, msg := w.Degraded(); !bad || !strings.Contains(msg, "short write") || m.degraded.Value() != 1 {
		t.Fatalf("Degraded() = %v %q, gauge %v: want the first failure, still set", bad, msg, m.degraded.Value())
	}

	path := filepath.Join(t.TempDir(), "journal.log")
	if err := os.WriteFile(path, out.buf.Bytes(), 0o644); err != nil {
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
	if got := eng.Stats().Users; got != len(acked) {
		t.Fatalf("recovery kept %d of %d acknowledged users (%+v)", got, len(acked), stats)
	}

	fsyncs := 0
	w = NewWriter(&bytes.Buffer{})
	w.syncFn = func() error {
		if fsyncs++; fsyncs == 1 {
			return errors.New("EIO")
		}
		return nil
	}
	for _, u := range []string{"a", "b"} {
		if err := w.Append(Entry{Op: OpAddUser, User: u}); !errors.Is(err, ErrDurability) {
			t.Fatalf("append %s after a failed fsync: %v, want ErrDurability", u, err)
		}
	}
	if bad, _ := w.Degraded(); !bad || fsyncs != 1 {
		t.Fatalf("Degraded() = %v after %d fsyncs, want set and no fsync retried", bad, fsyncs)
	}
}
