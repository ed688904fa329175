package caar

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"caar/internal/adstore"
	"caar/internal/faultinject"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// Crash points on the snapshot publish path, consulted through the
// faultinject registry (one atomic load each when disarmed). The soak
// harness arms them to kill the process at the two moments a buggy
// save protocol would lose or corrupt a snapshot.
const (
	// CrashSnapshotPreFsync fires after the temp file is written but before
	// its fsync: the bytes may still be only in the page cache.
	CrashSnapshotPreFsync = "snapshot.pre-fsync"
	// CrashSnapshotPreRename fires after the temp file is durable but
	// before any rename: the snapshot exists under its temp name only.
	CrashSnapshotPreRename = "snapshot.post-fsync-pre-rename"
)

// Snapshot persistence serializes the engine's durable state — users, the
// follower graph, campaigns (including spend), ads (exact keyword vectors),
// and the text pipeline's vocabulary statistics — as versioned JSON.
//
// Feed windows and candidate buffers are deliberately NOT persisted: they
// hold ephemeral context that decays within hours and rebuilds from the live
// stream within one window of traffic. A restored engine therefore returns
// bid/geo-ranked recommendations until fresh posts arrive, exactly like an
// engine after a quiet period.

// snapshotVersion is bumped on breaking format changes.
const snapshotVersion = 1

type snapshotFile struct {
	Version   int                `json:"version"`
	Algorithm Algorithm          `json:"algorithm"`
	Vocab     snapshotVocab      `json:"vocab"`
	Users     []string           `json:"users"` // handles in internal-ID order
	Edges     [][2]uint32        `json:"edges"` // (follower, followee) internal IDs
	Campaigns []snapshotCampaign `json:"campaigns"`
	Ads       []snapshotAd       `json:"ads"`
}

type snapshotVocab struct {
	Terms []string `json:"terms"`
	DF    []int    `json:"df"`
	Docs  int      `json:"docs"`
}

type snapshotCampaign struct {
	Name   string    `json:"name"`
	Budget float64   `json:"budget"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Spent  float64   `json:"spent"`
}

type snapshotAd struct {
	ID       string             `json:"id"` // external name
	Campaign string             `json:"campaign,omitempty"`
	Bid      float64            `json:"bid"`
	Global   bool               `json:"global"`
	Lat      float64            `json:"lat,omitempty"`
	Lng      float64            `json:"lng,omitempty"`
	RadiusKm float64            `json:"radius_km,omitempty"`
	Slots    []string           `json:"slots"`
	Terms    map[string]float64 `json:"terms"` // term string → weight (exact vector)
}

// Snapshot writes the engine's durable state to w. Concurrent mutations are
// excluded for the duration of the write.
func (e *Engine) Snapshot(w io.Writer) error {
	// Quiesce: take the directory writer mutex (freezing the published
	// snapshot — lock order: dirMu before shard locks) plus every shard
	// lock so the state is a consistent cut. Readers keep serving off the
	// frozen directory throughout.
	e.dirMu.Lock()
	defer e.dirMu.Unlock()
	defer faultinject.WatchLock("engine.dirMu")()
	for _, sh := range e.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}
	d := e.dir.Load()

	sf := snapshotFile{Version: snapshotVersion, Algorithm: e.Algorithm()}
	sf.Vocab.Terms, sf.Vocab.DF, sf.Vocab.Docs = e.pipeline.Vocab.Snapshot()
	sf.Users = append([]string(nil), d.names...)

	for id := range d.names {
		poster := feed.UserID(id)
		for _, follower := range e.graph.Followers(poster) {
			sf.Edges = append(sf.Edges, [2]uint32{uint32(follower), uint32(poster)})
		}
	}

	e.store.ForEachCampaign(func(c *adstore.Campaign) {
		sf.Campaigns = append(sf.Campaigns, snapshotCampaign{
			Name: c.Name, Budget: c.Budget, Start: c.Start, End: c.End, Spent: c.Spent(),
		})
	})

	var adErr error
	e.store.ForEach(func(a *adstore.Ad) {
		ref, ok := d.ads.get(a.ID)
		if !ok {
			return
		}
		name := ref.name
		sa := snapshotAd{
			ID:       name,
			Campaign: a.Campaign,
			Bid:      a.Bid,
			Global:   a.Global,
			Terms:    make(map[string]float64, len(a.Vec)),
		}
		if !a.Global {
			sa.Lat, sa.Lng, sa.RadiusKm = a.Target.Center.Lat, a.Target.Center.Lng, a.Target.RadiusKm
		}
		for _, sl := range a.Slots.Slots() {
			sa.Slots = append(sa.Slots, sl.String())
		}
		for termID, weight := range a.Vec {
			term := e.pipeline.Vocab.Term(termID)
			if term == "" {
				adErr = fmt.Errorf("caar: snapshot: ad %q references unknown term %d", name, termID)
				return
			}
			sa.Terms[term] = weight
		}
		sf.Ads = append(sf.Ads, sa)
	})
	if adErr != nil {
		return adErr
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	if err := enc.Encode(sf); err != nil {
		return fmt.Errorf("caar: snapshot encode: %w", err)
	}
	return nil
}

// snapshotTrailer prefixes the checksum line SaveSnapshot appends after the
// JSON document. json.Decoder stops at the end of the JSON value, so the
// trailer is invisible to plain Restore.
const snapshotTrailer = "//caar-snapshot-crc32c "

// PrevSnapshotSuffix is appended to the previous good snapshot's path when
// SaveSnapshot replaces it; LoadSnapshot falls back to that file when the
// primary fails verification.
const PrevSnapshotSuffix = ".prev"

// SaveSnapshot atomically writes the engine's durable state to path:
// serialize to a temp file in the same directory, append a CRC32C trailer,
// fsync, then rename over path. Any existing snapshot at path is first
// preserved as path+".prev" so a verification failure on load can fall back
// to the previous good state.
func (e *Engine) SaveSnapshot(path string) error {
	start := time.Now()
	size, err := e.saveSnapshot(path)
	e.obsm.snapshotResult(start, size, err)
	return err
}

// saveSnapshot does the work of SaveSnapshot and reports the bytes written.
func (e *Engine) saveSnapshot(path string) (int64, error) {
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		return 0, err
	}
	crc := crc32.Checksum(buf.Bytes(), crc32.MakeTable(crc32.Castagnoli))
	fmt.Fprintf(&buf, "%s%08x\n", snapshotTrailer, crc)
	size := int64(buf.Len())

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return 0, fmt.Errorf("caar: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		cleanup()
		return 0, fmt.Errorf("caar: snapshot write: %w", err)
	}
	faultinject.CrashPoint(CrashSnapshotPreFsync)
	if err := tmp.Sync(); err != nil {
		cleanup()
		return 0, fmt.Errorf("caar: snapshot fsync: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		cleanup()
		return 0, fmt.Errorf("caar: snapshot chmod: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("caar: snapshot close: %w", err)
	}
	faultinject.CrashPoint(CrashSnapshotPreRename)
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+PrevSnapshotSuffix); err != nil {
			os.Remove(tmpName)
			return 0, fmt.Errorf("caar: snapshot rotate previous: %w", err)
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return 0, fmt.Errorf("caar: snapshot rename: %w", err)
	}
	// Persist the renames themselves: the file's bytes are fsynced, but the
	// name pointing at them lives in the directory. An OS crash before the
	// directory hits disk can resurrect the old snapshot (or no snapshot)
	// next to a journal that was reset on the strength of this one — so a
	// failure here is a durability error, not best-effort noise.
	if err := fsyncDir(dir); err != nil {
		return 0, fmt.Errorf("caar: snapshot publish: %w", err)
	}
	return size, nil
}

// fsyncDir makes directory-entry operations (the snapshot renames) durable.
// Kept local rather than shared with journal.FsyncDir because journal
// imports caar, not the other way around.
func fsyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("open dir for fsync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("fsync dir %s: %w", dir, err)
	}
	return nil
}

// LoadSnapshot reads a snapshot written by SaveSnapshot, verifying its
// checksum, and restores an engine from it. When the primary file is
// missing, corrupt, or fails verification it falls back to the previous
// good snapshot at path+".prev"; only if both fail does it return an error.
// The returned path names the file that actually loaded, so operators can
// tell a fallback from a normal restore. A file without the checksum trailer
// fails verification; Restore reads what Snapshot wrote directly.
func LoadSnapshot(cfg Config, path string) (*Engine, string, error) {
	eng, primaryErr := loadVerified(cfg, path)
	if primaryErr == nil {
		return eng, path, nil
	}
	prev := path + PrevSnapshotSuffix
	eng, prevErr := loadVerified(cfg, prev)
	if prevErr == nil {
		return eng, prev, nil
	}
	return nil, "", fmt.Errorf("caar: snapshot %s: %w (previous: %v)", path, primaryErr, prevErr)
}

// loadVerified reads one snapshot file, checks its trailer checksum, and
// restores from the payload.
func loadVerified(cfg Config, path string) (*Engine, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	i := bytes.LastIndex(raw, []byte(snapshotTrailer))
	if i < 0 {
		return nil, errors.New("no checksum trailer")
	}
	payload := raw[:i]
	field := bytes.TrimSpace(raw[i+len(snapshotTrailer):])
	want, err := strconv.ParseUint(string(field), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("bad checksum trailer %q", field)
	}
	if got := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)); got != uint32(want) {
		return nil, fmt.Errorf("checksum mismatch (want %08x, got %08x)", want, got)
	}
	return Restore(cfg, bytes.NewReader(payload))
}

// SnapshotExists reports whether a loadable snapshot (primary or previous)
// is present at path.
func SnapshotExists(path string) bool {
	if _, err := os.Stat(path); err == nil {
		return true
	}
	_, err := os.Stat(path + PrevSnapshotSuffix)
	return err == nil
}

// Restore opens a fresh engine from cfg and loads a snapshot into it. The
// snapshot's algorithm is informational; cfg.Algorithm decides the engine
// actually built (so a snapshot taken with CAP can be reopened with RS for
// debugging).
func Restore(cfg Config, r io.Reader) (*Engine, error) {
	var sf snapshotFile
	dec := json.NewDecoder(r)
	if err := dec.Decode(&sf); err != nil {
		return nil, fmt.Errorf("caar: snapshot decode: %w", err)
	}
	if sf.Version != snapshotVersion {
		return nil, fmt.Errorf("caar: snapshot version %d not supported (want %d)", sf.Version, snapshotVersion)
	}
	e, err := Open(cfg)
	if err != nil {
		return nil, err
	}
	if err := e.pipeline.Vocab.Restore(sf.Vocab.Terms, sf.Vocab.DF, sf.Vocab.Docs); err != nil {
		return nil, err
	}
	for _, handle := range sf.Users {
		if err := e.AddUser(handle); err != nil {
			return nil, fmt.Errorf("caar: snapshot user %q: %w", handle, err)
		}
	}
	for _, edge := range sf.Edges {
		if int(edge[0]) >= len(sf.Users) || int(edge[1]) >= len(sf.Users) {
			return nil, fmt.Errorf("caar: snapshot edge %v references unknown user", edge)
		}
		if err := e.graph.Follow(feed.UserID(edge[0]), feed.UserID(edge[1])); err != nil {
			return nil, fmt.Errorf("caar: snapshot edge %v: %w", edge, err)
		}
	}
	for _, sc := range sf.Campaigns {
		c, err := adstore.NewCampaign(sc.Name, sc.Budget, sc.Start, sc.End)
		if err != nil {
			return nil, fmt.Errorf("caar: snapshot campaign %q: %w", sc.Name, err)
		}
		if err := c.SetSpent(sc.Spent); err != nil {
			return nil, fmt.Errorf("caar: snapshot campaign %q: %w", sc.Name, err)
		}
		if err := e.store.AddCampaign(c); err != nil {
			return nil, err
		}
	}
	for _, sa := range sf.Ads {
		if err := e.restoreAd(sa); err != nil {
			return nil, fmt.Errorf("caar: snapshot ad %q: %w", sa.ID, err)
		}
	}
	return e, nil
}

// restoreAd re-registers one ad from its snapshot record, bypassing the text
// pipeline: the exact keyword vector is re-interned term by term.
func (e *Engine) restoreAd(sa snapshotAd) error {
	internal := &adstore.Ad{
		Campaign: sa.Campaign,
		Bid:      sa.Bid,
		Global:   sa.Global,
		Vec:      make(textproc.SparseVector, len(sa.Terms)),
	}
	for term, weight := range sa.Terms {
		internal.Vec[e.pipeline.Vocab.Intern(term)] = weight
	}
	if !sa.Global {
		internal.Target = geo.Circle{
			Center:   geo.Point{Lat: sa.Lat, Lng: sa.Lng},
			RadiusKm: sa.RadiusKm,
		}
	}
	for _, name := range sa.Slots {
		sl, ok := Slot(name).internal()
		if !ok {
			return fmt.Errorf("unknown slot %q", name)
		}
		internal.Slots |= timeslot.NewSet(sl)
	}
	if len(sa.Slots) == 0 {
		internal.Slots = timeslot.AllSlots
	}

	if err := e.publishAd(sa.ID, internal); err != nil {
		if errors.Is(err, ErrDuplicate) {
			return fmt.Errorf("duplicate in snapshot: %w", err)
		}
		return err
	}
	return nil
}
