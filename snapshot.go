package caar

import (
	"bufio"
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
	"caar/internal/durable"
	"caar/internal/faultinject"
	"caar/internal/feed"
	"caar/internal/geo"
	"caar/internal/textproc"
	"caar/internal/timeslot"
)

// Crash points on the snapshot publish path, consulted through the
// faultinject registry (one atomic load each when disarmed). The soak
// harness arms them to kill the process at each step of a save.
const (
	// CrashSnapshotPreFsync fires after the temp file is written but before
	// its fsync: the bytes may still be only in the page cache.
	CrashSnapshotPreFsync = "snapshot.pre-fsync"
	// CrashSnapshotPreRename fires after the temp file is durable but
	// before the rename: the new head exists under its temp name only.
	CrashSnapshotPreRename = "snapshot.post-fsync-pre-rename"
	// CrashSnapshotPostRename fires after the rename but before the
	// directory fsync: the new head is the state file.
	CrashSnapshotPostRename = "snapshot.post-rename"
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
	defer e.lockShards()()
	d := e.dir.Load()

	sf := snapshotFile{Version: snapshotVersion}
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
		for _, t := range a.Vec {
			term := e.pipeline.Vocab.Term(t.ID)
			if term == "" {
				adErr = fmt.Errorf("caar: snapshot: ad %q references unknown term %d", name, t.ID)
				return
			}
			sa.Terms[term] = t.W
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
// trailer is invisible to plain Restore. After the checksum comes
// " posts <n>", Stats.PostsDelivered for the posts the head compacts, and
// the checksum covers it too. Older trailers lack it and restore zero.
const snapshotTrailer = "//caar-snapshot-crc32c "

// SaveSnapshot makes path a head-only state file holding the engine's
// durable state: the head goes to a temp file in the same directory, is
// fsynced, and is renamed over path. A crash before the rename leaves the
// old file, head and records, whole; a crash after it leaves the new head
// alone, so nothing is ever applied twice. Compacting a live state file
// this way is safe only after writes to it have stopped: a record appended
// to the old file after the cut is lost with it.
func (e *Engine) SaveSnapshot(path string) error {
	var buf bytes.Buffer
	if err := e.Snapshot(&buf); err != nil {
		return err
	}
	// Writes have stopped (see above), so the count matches the document.
	posts := fmt.Sprintf(" posts %d", e.postsDelivered.Load())
	fmt.Fprintf(&buf, "%s%08x%s\n", snapshotTrailer, headSum(buf.Bytes(), posts), posts)

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return fmt.Errorf("caar: snapshot temp file: %w", err)
	}
	tmpName := tmp.Name()
	cleanup := func() { tmp.Close(); os.Remove(tmpName) }
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		cleanup()
		return fmt.Errorf("caar: snapshot write: %w", err)
	}
	faultinject.CrashPoint(CrashSnapshotPreFsync)
	if err := tmp.Sync(); err != nil {
		cleanup()
		return fmt.Errorf("caar: snapshot fsync: %w", err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		cleanup()
		return fmt.Errorf("caar: snapshot chmod: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("caar: snapshot close: %w", err)
	}
	faultinject.CrashPoint(CrashSnapshotPreRename)
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("caar: snapshot rename: %w", err)
	}
	faultinject.CrashPoint(CrashSnapshotPostRename)
	// The file's bytes are fsynced, but the name pointing at them lives in
	// the directory: an OS crash before it reaches the disk can bring back
	// the old file, so a failure here is a durability error.
	if err := durable.FsyncDir(dir); err != nil {
		return fmt.Errorf("caar: snapshot publish: %w", err)
	}
	return nil
}

// LoadSnapshot opens the head-only state file SaveSnapshot wrote at path.
// Records after the head are an error: recovering them is journal.Recover's
// job. The returned path is always path.
func LoadSnapshot(cfg Config, path string) (*Engine, string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, "", err
	}
	defer f.Close()
	e, err := OpenState(cfg, f)
	if err != nil {
		return nil, "", err
	}
	switch n, err := f.Read(make([]byte, 1)); {
	case n > 0:
		return nil, "", fmt.Errorf("caar: snapshot %s: records follow the head", path)
	case !errors.Is(err, io.EOF):
		return nil, "", fmt.Errorf("caar: snapshot %s: %w", path, err)
	}
	return e, path, nil
}

// OpenState opens the engine the state file f holds. A state file is a head
// — the document Snapshot writes plus SaveSnapshot's checksum trailer line —
// followed by journal records, so an old snapshot, an old journal and the
// two concatenated are each one. A file whose first byte is the '{' of a
// head is restored from it, after its checksum is checked, and f is left at
// the first record for journal.Recover to replay. Any other file opens a
// fresh engine with f at its start, and Recover truncates whatever there is
// no valid record. A head that fails the check is an error naming the file:
// nothing falls back and nothing is truncated. JSON lines never start with
// "//", so the first line that does ends the head.
func OpenState(cfg Config, f *os.File) (*Engine, error) {
	fail := func(err error) (*Engine, error) {
		return nil, fmt.Errorf("caar: state file %s: %w", f.Name(), err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	br := bufio.NewReaderSize(f, 1<<16)
	if first, err := br.Peek(1); errors.Is(err, io.EOF) || (err == nil && first[0] != '{') {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return fail(err)
		}
		return Open(cfg)
	} else if err != nil {
		return fail(err)
	}
	var head []byte
	for {
		start := len(head)
		var err error
		for {
			var part []byte
			part, err = br.ReadSlice('\n')
			head = append(head, part...)
			if !errors.Is(err, bufio.ErrBufferFull) {
				break
			}
		}
		if errors.Is(err, io.EOF) {
			return fail(errors.New("head without a complete checksum trailer line"))
		} else if err != nil {
			return fail(err)
		}
		if !bytes.HasPrefix(head[start:], []byte("//")) {
			continue
		}
		doc := head[:start]
		posts, err := checkHead(doc, head[start:])
		if err != nil {
			return fail(err)
		}
		e, err := Restore(cfg, bytes.NewReader(doc))
		if err != nil {
			return fail(err)
		}
		e.postsDelivered.Store(posts)
		if _, err := f.Seek(int64(len(head)), io.SeekStart); err != nil {
			return fail(err)
		}
		return e, nil
	}
}

// checkHead verifies the trailer line's checksum against the head's
// document and the count after it, and returns the count.
func checkHead(doc, trailer []byte) (posts uint64, err error) {
	field, ok := bytes.CutPrefix(bytes.TrimSpace(trailer), []byte(snapshotTrailer))
	sum, count, _ := bytes.Cut(field, []byte(" "))
	want, err := strconv.ParseUint(string(sum), 16, 32)
	if n, found := bytes.CutPrefix(count, []byte("posts ")); found && err == nil {
		posts, err = strconv.ParseUint(string(n), 10, 64)
	} else if len(count) > 0 {
		ok = false
	}
	if !ok || err != nil {
		return 0, fmt.Errorf("bad checksum trailer %q", trailer)
	}
	if got := headSum(doc, string(field[len(sum):])); got != uint32(want) {
		return 0, fmt.Errorf("head checksum mismatch (want %08x, got %08x)", want, got)
	}
	return posts, nil
}

// headSum is the trailer's checksum: CRC32C over the document, then the
// trailer's text after the checksum.
func headSum(doc []byte, rest string) uint32 {
	table := crc32.MakeTable(crc32.Castagnoli)
	return crc32.Update(crc32.Checksum(doc, table), table, []byte(rest))
}

// Restore opens a fresh engine from cfg and loads a snapshot into it.
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
	}
	terms := make([]textproc.Term, 0, len(sa.Terms))
	for term, weight := range sa.Terms {
		terms = append(terms, textproc.Term{ID: e.pipeline.Vocab.Intern(term), W: weight})
	}
	internal.Vec = textproc.NewVector(terms)
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
