package caar

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildSnapshotEngine creates a small engine with users, a campaign and ads.
func buildSnapshotEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	day := time.Date(2026, 7, 6, 0, 0, 0, 0, time.UTC)
	for _, u := range []string{"alice", "bob"} {
		if err := e.AddUser(u); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Follow("alice", "bob"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddCampaign("spring", 100, day, day.Add(48*time.Hour)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddAd(Ad{ID: "shoes", Text: "marathon running shoes", Campaign: "spring", Bid: 0.4}); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSaveLoadSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.snap")
	e := buildSnapshotEngine(t)
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), snapshotTrailer) {
		t.Fatal("saved snapshot missing checksum trailer")
	}

	loaded, src, err := LoadSnapshot(DefaultConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	if src != path {
		t.Fatalf("loaded from %s, want primary %s", src, path)
	}
	a, b := e.Stats(), loaded.Stats()
	if a.Users != b.Users || a.Ads != b.Ads || a.FollowEdges != b.FollowEdges {
		t.Fatalf("state mismatch: %+v vs %+v", a, b)
	}

	// No stray temp files survive.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.Contains(ent.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", ent.Name())
		}
	}
}

// TestOpenStateRejectsCorruptHead: after two saves, a bit flip in the
// newest head makes startup fail with an error naming the file. Nothing
// falls back to an older state, nothing is truncated, and the save left no
// second file to fall back to.
func TestOpenStateRejectsCorruptHead(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	e := buildSnapshotEngine(t)
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := e.AddUser("carol"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("two saves left %d files (%v), want the state file alone", len(entries), err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20 // bit flip inside the head's document
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := OpenState(DefaultConfig(), f); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenState on a corrupt head: %v, want an error naming %s", err, path)
	}
	if _, _, err := LoadSnapshot(DefaultConfig(), path); err == nil {
		t.Fatal("LoadSnapshot accepted a corrupt head")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, raw) {
		t.Fatalf("a failed head check changed the file (%v)", err)
	}
}

// TestOpenStateWithoutHead: an empty file and a file of records alone open a
// fresh engine, with the file left at its start for the records to replay.
func TestOpenStateWithoutHead(t *testing.T) {
	for name, content := range map[string]string{
		"empty":        "",
		"records only": "j2 2 00000000 {}\n",
		// A power loss can leave the first append as a zero-filled block.
		"zero-filled first record": strings.Repeat("\x00", 24) + "\n",
	} {
		path := filepath.Join(t.TempDir(), "state")
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		e, err := OpenState(DefaultConfig(), f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if at, _ := f.Seek(0, io.SeekCurrent); at != 0 || e.Stats().Users != 0 {
			t.Fatalf("%s: at byte %d with %d users, want a fresh engine at byte 0", name, at, e.Stats().Users)
		}
		f.Close()
	}
}

// TestHeadKeepsPostCount: a head compacts the posts applied before it, so
// its trailer carries their count, covered by the checksum, and OpenState
// restores Stats.PostsDelivered from it.
func TestHeadKeepsPostCount(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	e := buildSnapshotFixture(t)
	e.Post("alice", "espresso before the marathon", morning)
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadSnapshot(testConfig(), path)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Stats().PostsDelivered, e.Stats().PostsDelivered; got != want || want != 2 {
		t.Fatalf("restored post count %d, want %d (2 posts)", got, want)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tampered := bytes.Replace(raw, []byte(" posts 2\n"), []byte(" posts 3\n"), 1)
	if bytes.Equal(tampered, raw) {
		t.Fatalf("trailer without the post count:\n%s", raw[bytes.LastIndex(raw, []byte("//")):])
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(testConfig(), path); err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("a changed post count loaded: %v", err)
	}
}

// TestOpenStateStopsAtFirstRecord: records after a head are left for replay,
// so OpenState positions the file just past the trailer line, and
// LoadSnapshot, which restores a head alone, refuses the file.
func TestOpenStateStopsAtFirstRecord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	if err := buildSnapshotEngine(t).SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	head, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	record := "j2 2 00000000 {}\n"
	if err := os.WriteFile(path, append(head, record...), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	e, err := OpenState(DefaultConfig(), f)
	if err != nil {
		t.Fatal(err)
	}
	if at, _ := f.Seek(0, io.SeekCurrent); at != int64(len(head)) || e.Stats().Users != 2 {
		t.Fatalf("at byte %d with %d users, want byte %d with the head's 2", at, e.Stats().Users, len(head))
	}
	if _, _, err := LoadSnapshot(DefaultConfig(), path); err == nil {
		t.Fatal("LoadSnapshot accepted records after the head")
	}
}

func TestLoadSnapshotBothCorrupt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	if err := os.WriteFile(path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadSnapshot(DefaultConfig(), path); err == nil {
		t.Fatal("corrupt snapshot without fallback accepted")
	}
}

// TestLoadSnapshotLegacyWithoutTrailer: a head without the checksum
// trailer is rejected.
func TestLoadSnapshotLegacyWithoutTrailer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := buildSnapshotEngine(t).Snapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	if _, _, err := LoadSnapshot(DefaultConfig(), path); err == nil {
		t.Fatal("head without a checksum trailer accepted")
	}
}

// TestLoadSnapshotWithAlgorithmField: snapshots written while the facade
// could run RS or IL name their engine ("algorithm": "CAP"). The fixture is
// such a file, saved from buildSnapshotFixture's state; json.Decoder skips
// the key and the trailer sums the bytes as written, so it loads, with the
// same users, edges, campaigns (spend included) and ads as that state.
func TestLoadSnapshotWithAlgorithmField(t *testing.T) {
	path := filepath.Join("testdata", "snapshot_with_algorithm.snap")
	loaded, src, err := LoadSnapshot(testConfig(), path)
	if err != nil || src != path {
		t.Fatalf("loaded %q: %v", src, err)
	}
	var want, got bytes.Buffer
	if err := buildSnapshotFixture(t).Snapshot(&want); err != nil {
		t.Fatal(err)
	}
	if err := loaded.Snapshot(&got); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("restored state differs from the state saved:\n%s\nwant:\n%s", got.String(), want.String())
	}
}
