package caar

import (
	"bytes"
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
	if !SnapshotExists(path) {
		t.Fatal("SnapshotExists = false after save")
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

func TestLoadSnapshotFallsBackToPrevOnCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	e := buildSnapshotEngine(t)
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	// Second save: the first becomes .prev, then corrupt the primary.
	if err := e.AddUser("carol"); err != nil {
		t.Fatal(err)
	}
	if err := e.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20 // bit flip inside the payload
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	loaded, src, err := LoadSnapshot(DefaultConfig(), path)
	if err != nil {
		t.Fatalf("fallback to .prev failed: %v", err)
	}
	if src != path+PrevSnapshotSuffix {
		t.Fatalf("loaded from %s, want fallback %s", src, path+PrevSnapshotSuffix)
	}
	// The fallback is the pre-carol state.
	if got := loaded.Stats().Users; got != 2 {
		t.Fatalf("loaded %d users, want 2 (previous good snapshot)", got)
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

// TestLoadSnapshotLegacyWithoutTrailer: a primary without the checksum
// trailer is rejected, and the previous snapshot loads instead.
func TestLoadSnapshotLegacyWithoutTrailer(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.snap")
	e := buildSnapshotEngine(t)
	if err := e.SaveSnapshot(path + PrevSnapshotSuffix); err != nil {
		t.Fatal(err)
	}
	if err := e.AddUser("carol"); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Snapshot(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	loaded, src, err := LoadSnapshot(DefaultConfig(), path)
	if err != nil {
		t.Fatalf("fallback to .prev failed: %v", err)
	}
	if src != path+PrevSnapshotSuffix {
		t.Fatalf("loaded the trailer-less %s, want fallback %s", src, path+PrevSnapshotSuffix)
	}
	if got := loaded.Stats().Users; got != 2 {
		t.Fatalf("loaded %d users, want 2 (previous snapshot)", got)
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
