// Package journal provides an append-only event log for the recommender: a
// durable record of every state-changing API call (users, follows, ads,
// campaigns, posts, check-ins, impressions), replayable into a fresh engine
// at startup. Its records follow a snapshot head in one state file:
// caar.OpenState restores the head, Recover replays the records after it,
// and a graceful shutdown replaces the file with a new head alone
// (caar.Engine.SaveSnapshot).
//
// Format: one framed record per line —
//
//	j2 <payload-len> <crc32c-hex> <payload-json>\n
//
// The CRC32C checksum (Castagnoli) covers the JSON payload, so torn writes
// and bit flips are detected rather than silently replayed. The log stays
// line-oriented and greppable. A line without the frame is not a record:
// replay treats it exactly like a torn one.
//
// Durability is configurable per Writer: fsync after every append
// (SyncAlways), at most once per interval (SyncInterval), or never
// (SyncNever, leaving durability to the OS page cache).
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	caar "caar"
	"caar/internal/faultinject"
)

// Crash points consulted on the journal's durability paths. Disarmed (the
// default) each is one atomic load; the soak harness arms them via
// faultinject.ArmCrashPoints to kill the process at exactly these
// instructions and prove recovery holds.
const (
	// CrashPreFsync fires after an appended record is flushed to the OS but
	// before it is fsynced — the record may or may not survive, and the
	// client never got an acknowledgment.
	CrashPreFsync = "journal.pre-fsync"
	// CrashMidReplay fires mid-batch during replay (arm with a count, e.g.
	// "journal.mid-replay:100", to die after the 100th record) — recovery
	// must be restartable from an interrupted recovery.
	CrashMidReplay = "journal.mid-replay"
)

// Op is the type tag of a journal entry.
type Op string

// Journal operations.
const (
	OpAddUser     Op = "add_user"
	OpFollow      Op = "follow"
	OpUnfollow    Op = "unfollow"
	OpAddCampaign Op = "add_campaign"
	OpAddAd       Op = "add_ad"
	OpRemoveAd    Op = "remove_ad"
	OpPost        Op = "post"
	OpCheckIn     Op = "check_in"
	OpImpression  Op = "impression"
)

// Entry is one journaled event. Exactly the fields relevant to Op are set.
type Entry struct {
	Op Op        `json:"op"`
	At time.Time `json:"at,omitempty"`

	User     string  `json:"user,omitempty"`
	Followee string  `json:"followee,omitempty"`
	Text     string  `json:"text,omitempty"`
	Lat      float64 `json:"lat,omitempty"`
	Lng      float64 `json:"lng,omitempty"`

	Campaign *CampaignEntry `json:"campaign,omitempty"`
	Ad       *caar.Ad       `json:"ad,omitempty"`
	AdID     string         `json:"ad_id,omitempty"`
}

// CampaignEntry records an AddCampaign call.
type CampaignEntry struct {
	Name   string    `json:"name"`
	Budget float64   `json:"budget"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
}

// framePrefix tags a checksummed record.
const framePrefix = "j2 "

// ErrDurability marks a failure to persist an entry (write, flush or fsync
// error). The operation was applied in memory but is NOT durable; servers
// should surface it as a 5xx so clients don't mistake it for a rejected
// request.
var ErrDurability = errors.New("journal: durability failure")

// castagnoli is the CRC32C polynomial table (hardware-accelerated on amd64
// and arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SyncPolicy selects when a file-backed Writer calls fsync.
type SyncPolicy int

const (
	// SyncAlways fsyncs after every append: no acknowledged record is ever
	// lost to a crash, at the cost of one disk flush per write.
	SyncAlways SyncPolicy = iota
	// SyncIntervalPolicy fsyncs at most once per configured interval; a
	// crash loses at most the records appended since the last sync.
	SyncIntervalPolicy
	// SyncNever leaves flushing to the OS page cache.
	SyncNever
)

// String implements fmt.Stringer.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncIntervalPolicy:
		return "interval"
	case SyncNever:
		return "never"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// ParseSyncPolicy maps "always", "interval" or "never" to a SyncPolicy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncIntervalPolicy, nil
	case "never":
		return SyncNever, nil
	default:
		return 0, fmt.Errorf("journal: unknown fsync policy %q (want always, interval or never)", s)
	}
}

// Writer appends entries to a log. Safe for concurrent use; each entry is
// written atomically with respect to other writers on the same Writer.
type Writer struct {
	mu  sync.Mutex
	out io.Writer // guarded by mu; a batch is one Write, so nothing is buffered here

	// policy-driven fsync state (NewFileWriter); a nil syncFn never syncs.
	syncFn   func() error
	policy   SyncPolicy
	interval time.Duration
	lastSync time.Time // guarded by mu
	now      func() time.Time
	// pendingSync is set when an interval-policy append was acknowledged
	// without an fsync. SyncPending flushes it; without that, an idle tail
	// (traffic stops right after an append) would sit unsynced until the
	// *next* append — indefinitely.
	pendingSync bool // guarded by mu

	// degraded is set by the first durability failure and stays set: a short
	// write leaves a torn frame that Recover cuts everything after, and after
	// a failed fsync the kernel may have dropped the dirty pages, so nothing
	// appended later could be acknowledged. Readers (the readiness probe)
	// must not block on w.mu behind a hung fsync, hence atomics.
	metrics  *Metrics
	degraded atomic.Bool
	lastErr  atomic.Value // string: the first failure
}

// NewWriter wraps w in a journal writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{out: w, now: time.Now}
}

// NewFileWriter wraps an opened journal file in a writer with an fsync
// policy. interval is only meaningful with SyncIntervalPolicy. Call Close
// (or Flush) before discarding the writer so records an interval or never
// policy left unsynced reach the disk.
func NewFileWriter(f *os.File, policy SyncPolicy, interval time.Duration) *Writer {
	w := NewWriter(f)
	w.syncFn = f.Sync
	w.policy = policy
	w.interval = interval
	return w
}

// SetMetrics attaches observability collectors to the writer. Call before
// the first Append; a nil-metrics writer skips all recording.
func (w *Writer) SetMetrics(m *Metrics) {
	w.metrics = m
	if m != nil {
		m.degraded.Set(0)
	}
}

// Degraded reports whether the writer is in durability-error state — an
// append failed to persist — along with the first failure's message. It
// stays set until the process restarts.
func (w *Writer) Degraded() (bool, string) {
	if !w.degraded.Load() {
		return false, ""
	}
	msg, _ := w.lastErr.Load().(string)
	return true, msg
}

// noteAppendError flags the durability-error state, keeping the first
// failure's message, and passes err through.
func (w *Writer) noteAppendError(err error) error {
	if !w.degraded.Swap(true) {
		w.lastErr.Store(err.Error())
	}
	if w.metrics != nil {
		w.metrics.appendErrors.Inc()
		w.metrics.degraded.Set(1)
	}
	return err
}

// Append writes one framed entry: AppendBatch with a batch of one.
func (w *Writer) Append(e Entry) error { return w.AppendBatch([]Entry{e}) }

// AppendBatch writes a batch of framed entries to the underlying writer
// with at most ONE fsync for the whole batch — the group
// commit at the heart of the asynchronous ingest path. Either the entire
// batch is durable per the sync policy or an error is returned and the
// caller must treat every entry in the batch as unacknowledged (a torn tail
// is cut by Recover on restart). Entries are validated, encoded and framed
// outside the lock; the one write and the single policy sync happen under
// one lock acquisition, so concurrent callers can never interleave frames.
// After the first durability failure every call returns ErrDurability
// without writing.
func (w *Writer) AppendBatch(entries []Entry) error {
	if len(entries) == 0 {
		return nil
	}
	var frames []byte
	for _, e := range entries {
		if e.Op == "" {
			return errors.New("journal: entry without op")
		}
		payload, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("journal: marshal: %w", err)
		}
		if frames == nil {
			// Sized as if every entry were the first's length; append takes the rest.
			frames = make([]byte, 0, len(entries)*(len(payload)+32))
		}
		// Frame layout: "j2 " + len + " " + 8-hex-digit CRC + " " + payload + "\n".
		frames = append(frames, framePrefix...)
		frames = strconv.AppendInt(frames, int64(len(payload)), 10)
		frames = fmt.Appendf(frames, " %08x ", crc32.Checksum(payload, castagnoli))
		frames = append(frames, payload...)
		frames = append(frames, '\n')
	}

	w.mu.Lock() //caarlint:allow readpathlock journal append order is the durability contract; this lock defines it
	defer w.mu.Unlock()
	defer faultinject.WatchLock("journal.Writer.mu")()
	if bad, msg := w.Degraded(); bad {
		return w.noteAppendError(fmt.Errorf("%w: writer failed earlier (%s)", ErrDurability, msg))
	}
	if _, err := w.out.Write(frames); err != nil {
		return w.noteAppendError(fmt.Errorf("%w: append: %w", ErrDurability, err))
	}
	faultinject.CrashPoint(CrashPreFsync)
	if err := w.maybeSyncLocked(); err != nil {
		return w.noteAppendError(fmt.Errorf("%w: sync: %w", ErrDurability, err))
	}
	if w.metrics != nil {
		w.metrics.appends.Add(uint64(len(entries)))
		w.metrics.appendBytes.Add(uint64(len(frames)))
	}
	return nil
}

// maybeSyncLocked applies the fsync policy; callers hold w.mu.
func (w *Writer) maybeSyncLocked() error {
	if w.syncFn == nil {
		return nil
	}
	switch w.policy {
	case SyncAlways:
		return w.timedSync()
	case SyncIntervalPolicy:
		now := w.now()
		if w.lastSync.IsZero() || now.Sub(w.lastSync) >= w.interval {
			if err := w.timedSync(); err != nil {
				return err
			}
			w.lastSync = now
			w.pendingSync = false
		} else {
			w.pendingSync = true
		}
	}
	return nil
}

// SyncPending flushes a deferred interval-policy fsync: if the last append
// was acknowledged without reaching stable storage, sync now. It is a no-op
// under SyncAlways (nothing is ever pending) and SyncNever (the operator
// opted out of fsync entirely). Callers with a clock — the ingest committer's
// idle timer, adserver's background ticker — invoke it so records appended
// just before traffic stops are not left unsynced until the next append.
func (w *Writer) SyncPending() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer faultinject.WatchLock("journal.Writer.mu")()
	if !w.pendingSync || w.syncFn == nil || w.policy != SyncIntervalPolicy {
		return nil
	}
	if err := w.timedSync(); err != nil {
		return w.noteAppendError(fmt.Errorf("%w: sync: %w", ErrDurability, err))
	}
	w.lastSync = w.now()
	w.pendingSync = false
	return nil
}

// timedSync runs syncFn under the fsync latency histogram.
func (w *Writer) timedSync() error {
	if w.metrics == nil {
		return w.syncFn()
	}
	start := time.Now()
	err := w.syncFn()
	w.metrics.fsyncSeconds.ObserveDuration(time.Since(start))
	return err
}

// Flush fsyncs a file-backed writer regardless of policy; every append has
// already reached the underlying writer.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer faultinject.WatchLock("journal.Writer.mu")()
	if w.syncFn != nil {
		if err := w.syncFn(); err != nil {
			return fmt.Errorf("journal: sync: %w", err)
		}
		w.lastSync = w.now()
		w.pendingSync = false
	}
	return nil
}

// Close fsyncs pending records. It does not close the
// underlying file; the caller owns it.
func (w *Writer) Close() error { return w.Flush() }

// ReplayStats summarizes one replay.
type ReplayStats struct {
	Applied int // entries applied successfully
	Skipped int // entries that failed to apply (logged state conflicts)

	// Per-class breakdown of Skipped, so operators can tell benign
	// duplicates (idempotent re-replay) from the engine rejecting ops that
	// should have applied.
	SkippedDuplicate  int // errors.Is caar.ErrDuplicate
	SkippedUnknownRef int // unknown user/ad/campaign references
	SkippedInvalid    int // malformed payloads, unknown ops, validation failures

	// SkipErrors holds the first few skip errors verbatim for logging.
	SkipErrors []string

	Torn bool // the log tail was incomplete or corrupt (crash during append)

	// ValidBytes is the byte count, from where replay started, just past
	// the last structurally valid record; Recover truncates the file there.
	ValidBytes int64
	// DiscardedBytes counts bytes Recover cut from a torn or corrupt tail.
	DiscardedBytes int64
}

// maxSkipErrors bounds ReplayStats.SkipErrors.
const maxSkipErrors = 5

// classify buckets an apply error into the ReplayStats breakdown.
func (s *ReplayStats) classify(err error) {
	s.Skipped++
	switch {
	case errors.Is(err, caar.ErrDuplicate):
		s.SkippedDuplicate++
	case errors.Is(err, caar.ErrUnknownUser), errors.Is(err, caar.ErrUnknownAd),
		errors.Is(err, caar.ErrUnknownCampaign):
		s.SkippedUnknownRef++
	default:
		s.SkippedInvalid++
	}
	if len(s.SkipErrors) < maxSkipErrors {
		s.SkipErrors = append(s.SkipErrors, err.Error())
	}
}

// Replay applies a journal to an engine. Entries that fail to apply (e.g. a
// duplicate user after a partial previous replay) are counted, classified
// and skipped rather than aborting, so replay is idempotent-ish over
// crash-recovered logs. A corrupt final record is reported as a torn tail;
// a corrupt record followed by more data aborts with an error (use Recover
// for a file that should be truncated and resumed instead).
func Replay(r io.Reader, eng *caar.Engine) (ReplayStats, error) {
	return replay(r, eng, false, nil)
}

// decodeLine validates one log line and returns its JSON payload.
func decodeLine(line []byte) ([]byte, error) {
	rest, ok := bytes.CutPrefix(line, []byte(framePrefix))
	if !ok {
		return nil, errors.New("journal: record without frame prefix")
	}
	lenField, rest, ok := bytes.Cut(rest, []byte{' '})
	if !ok {
		return nil, errors.New("journal: framed record missing length")
	}
	crcField, payload, ok := bytes.Cut(rest, []byte{' '})
	if !ok {
		return nil, errors.New("journal: framed record missing checksum")
	}
	n, err := strconv.Atoi(string(lenField))
	if err != nil || n != len(payload) {
		return nil, fmt.Errorf("journal: framed record length %s != payload %d", lenField, len(payload))
	}
	want, err := strconv.ParseUint(string(crcField), 16, 32)
	if err != nil {
		return nil, fmt.Errorf("journal: bad checksum field %q", crcField)
	}
	if got := crc32.Checksum(payload, castagnoli); got != uint32(want) {
		return nil, fmt.Errorf("journal: checksum mismatch (want %08x, got %08x)", want, got)
	}
	return payload, nil
}

// replayBatch is how many consecutive posts and check-ins replay buffers
// before applying them as one ApplyRuns call — the ingest applier's default
// batch, so recovery takes the shard locks as often as the live path did.
const replayBatch = 256

// replay reads records, applying each to eng. In recover mode it stops at
// the first structurally invalid record (truncation point); in strict mode
// an invalid non-final record is an error. Posts and check-ins are buffered
// and applied through ApplyRuns; the buffer is flushed when it holds
// replayBatch records, before any other record is applied, at a torn record
// and at the end of the log, so every record still applies in log order.
// progress, when non-nil, is called after every flush and every control-plane
// record with the cumulative record count and byte offset (it feeds the
// readiness probe during recovery).
func replay(r io.Reader, eng *caar.Engine, recoverMode bool, progress func(records, bytes int64)) (ReplayStats, error) {
	var stats ReplayStats
	var records int64
	tally := func(errs ...error) {
		for _, err := range errs {
			if err != nil {
				stats.classify(err)
			} else {
				stats.Applied++
			}
		}
		records += int64(len(errs))
		if progress != nil {
			progress(records, stats.ValidBytes)
		}
	}
	run := make([]Entry, 0, replayBatch)
	flush := func() {
		if len(run) > 0 {
			tally(ApplyRuns(eng, run)...)
			run = run[:0]
		}
	}
	br := bufio.NewReaderSize(r, 1<<16)
	var offset int64
	var pending []byte // a structurally invalid line, fate decided by what follows
	for {
		line, readErr := br.ReadBytes('\n')
		if readErr != nil && !errors.Is(readErr, io.EOF) {
			// A read failure is not end-of-log: surfacing it (rather than
			// treating the file as ending here) keeps Recover from truncating
			// valid records past a transient I/O error.
			return stats, fmt.Errorf("journal: read: %w", readErr)
		}
		if len(line) == 0 && readErr != nil {
			break
		}
		lineStart, lineEnd := offset, offset+int64(len(line))
		offset = lineEnd
		content := bytes.TrimSuffix(line, []byte("\n"))
		content = bytes.TrimSuffix(content, []byte("\r"))

		if pending != nil {
			// The previous record failed to parse but was not final: corrupt.
			return stats, fmt.Errorf("journal: corrupt entry: %s", truncate(pending))
		}

		if len(content) == 0 {
			stats.ValidBytes = lineEnd
			if readErr != nil {
				break
			}
			continue
		}

		payload, err := decodeLine(content)
		var e Entry
		if err == nil {
			err = json.Unmarshal(payload, &e)
		}
		if err != nil {
			flush()
			if recoverMode {
				if lineStart == 0 && content[0] == '{' {
					// A head: the caller skipped caar.OpenState.
					return stats, errors.New("journal: a snapshot head where the first record should be; open the file with caar.OpenState first")
				}
				// Truncation point: everything from this record on is cut.
				stats.Torn = true
				return stats, nil
			}
			// Possibly a torn final record; decide once we know whether more
			// data follows.
			pending = append([]byte(nil), content...)
			if readErr != nil {
				break
			}
			continue
		}

		faultinject.CrashPoint(CrashMidReplay)
		if e.Op == OpPost || e.Op == OpCheckIn {
			run = append(run, e)
			stats.ValidBytes = lineEnd
			if len(run) == replayBatch {
				flush()
			}
		} else {
			flush()
			stats.ValidBytes = lineEnd
			tally(apply(eng, e))
		}
		if readErr != nil {
			break
		}
	}
	flush()
	if pending != nil {
		stats.Torn = true
	}
	return stats, nil
}

// Recover replays a journal file in recovery mode from f's current offset
// (where caar.OpenState left a state file, after its head): a torn or
// corrupt tail is truncated to the last valid record instead of refusing to
// start, and the file is left positioned at its end, ready for appending.
// Records after a corrupt one (possible only after in-place corruption,
// never after a crash mid-append) are discarded with the tail;
// DiscardedBytes reports how much was cut. A snapshot head where the first
// record should be is an error, never a truncation point.
func Recover(f *os.File, eng *caar.Engine) (ReplayStats, error) {
	return RecoverWithProgress(f, eng, nil)
}

// RecoverWithProgress is Recover with live progress reporting: p (when
// non-nil) is updated after every replayed record and marked finished once
// the file is truncated and repositioned, so a readiness probe can report
// "recovering, N records / M bytes replayed" instead of a bare 503.
func RecoverWithProgress(f *os.File, eng *caar.Engine, p *RecoveryProgress) (ReplayStats, error) {
	start, err := f.Seek(0, io.SeekCurrent)
	if err != nil {
		return ReplayStats{}, fmt.Errorf("journal: recover seek: %w", err)
	}
	var progress func(records, bytes int64)
	if p != nil {
		p.start()
		if fi, err := f.Stat(); err == nil {
			p.setTotal(fi.Size() - start)
		}
		progress = p.observe
	}
	stats, err := replay(f, eng, true, progress)
	if err != nil {
		return stats, err
	}
	fi, err := f.Stat()
	if err != nil {
		return stats, fmt.Errorf("journal: recover stat: %w", err)
	}
	if end := start + stats.ValidBytes; end < fi.Size() {
		stats.DiscardedBytes = fi.Size() - end
		if err := f.Truncate(end); err != nil {
			return stats, fmt.Errorf("journal: truncate torn tail: %w", err)
		}
		if err := f.Sync(); err != nil {
			return stats, fmt.Errorf("journal: sync after truncate: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		return stats, fmt.Errorf("journal: recover seek end: %w", err)
	}
	if p != nil {
		p.finish(stats)
	}
	return stats, nil
}

func truncate(b []byte) string {
	const max = 80
	if len(b) > max {
		return string(b[:max]) + "…"
	}
	return string(b)
}

// PostEntry is the journal record of a post. Every writer of a post or a
// check-in builds the record here, and ApplyRuns is the only reader.
func PostEntry(author, text string, at time.Time) Entry {
	return Entry{Op: OpPost, User: author, Text: text, At: at}
}

// CheckInEntry is the journal record of a check-in.
func CheckInEntry(user string, lat, lng float64, at time.Time) Entry {
	return Entry{Op: OpCheckIn, User: user, Lat: lat, Lng: lng, At: at}
}

// ApplyRuns applies post and check-in entries to a through its batched entry
// points, one call per maximal run of the same op, in log order, and returns
// each entry's own error. It is the one mapping from a data-plane Entry to the
// engine: the ingest applier, Logged and replay all go through it, so a live
// write and its replay cannot read a record differently.
func ApplyRuns(a interface {
	PostBatch([]caar.PostRequest) []error
	CheckInBatch([]caar.CheckInRequest) []error
}, entries []Entry) []error {
	errs := make([]error, 0, len(entries))
	for start := 0; start < len(entries); {
		end := start + 1
		for end < len(entries) && entries[end].Op == entries[start].Op {
			end++
		}
		run := entries[start:end]
		switch run[0].Op {
		case OpPost:
			reqs := make([]caar.PostRequest, len(run))
			for i, e := range run {
				reqs[i] = caar.PostRequest{Author: e.User, Text: e.Text, At: e.At}
			}
			errs = append(errs, a.PostBatch(reqs)...)
		case OpCheckIn:
			reqs := make([]caar.CheckInRequest, len(run))
			for i, e := range run {
				reqs[i] = caar.CheckInRequest{User: e.User, Lat: e.Lat, Lng: e.Lng, At: e.At}
			}
			errs = append(errs, a.CheckInBatch(reqs)...)
		default:
			for range run {
				errs = append(errs, fmt.Errorf("journal: %q is not a post or a check-in", run[0].Op))
			}
		}
		start = end
	}
	return errs
}

// apply is the mapping from one Entry to the engine; its data-plane cases are
// ApplyRuns with a run of one.
func apply(eng *caar.Engine, e Entry) error {
	switch e.Op {
	case OpAddUser:
		return eng.AddUser(e.User)
	case OpFollow:
		return eng.Follow(e.User, e.Followee)
	case OpUnfollow:
		return eng.Unfollow(e.User, e.Followee)
	case OpAddCampaign:
		if e.Campaign == nil {
			return errors.New("journal: add_campaign without payload")
		}
		c := e.Campaign
		return eng.AddCampaign(c.Name, c.Budget, c.Start, c.End)
	case OpAddAd:
		if e.Ad == nil {
			return errors.New("journal: add_ad without payload")
		}
		return eng.AddAd(*e.Ad)
	case OpRemoveAd:
		return eng.RemoveAd(e.AdID)
	case OpPost, OpCheckIn:
		return ApplyRuns(eng, []Entry{e})[0]
	case OpImpression:
		_, err := eng.ServeImpression(e.User, e.AdID, e.At)
		return err
	default:
		return fmt.Errorf("journal: unknown op %q", e.Op)
	}
}

// Logged wraps an engine so every successful state change is appended to a
// journal. Reads (Recommend, Stats) pass through untouched via the embedded
// engine.
type Logged struct {
	*caar.Engine
	w *Writer
}

// NewLogged pairs an engine with a journal writer.
func NewLogged(eng *caar.Engine, w *Writer) *Logged {
	return &Logged{Engine: eng, w: w}
}

// HealthProblems aggregates degraded-state reasons from the engine
// (snapshot failures) and the journal writer (durability failures). The
// server's readiness probe reports these with a 503 so load balancers stop
// routing to a replica that can no longer persist what it acknowledges.
func (l *Logged) HealthProblems() []string {
	probs := l.Engine.HealthProblems()
	if bad, msg := l.w.Degraded(); bad {
		probs = append(probs, "journal: last append not durable: "+msg)
	}
	return probs
}

// Mutations follow the write-ahead contract: append (durable per the sync
// policy) first, then apply to the engine. The old apply-then-append order
// had a real failure mode — an append error (disk full, fsync failure)
// returned an error to the client while the mutation stayed live in memory,
// then silently vanished on restart; readers observed state the journal
// never contained. Journal-first closes it: an append error applies nothing,
// and an apply error after a durable append returns that error to the client
// while replay deterministically re-derives the same rejection (counted as a
// skip). Impressions are the one exception — billability is decided by the
// engine, so they stay apply-first and are declared in ApplyFirstOps for the
// soak ledger to classify as uncertain rather than acked.

// journalThenApply appends e, then applies it through apply — the mapping
// replay uses, so a live write and its replay cannot read an op differently.
func (l *Logged) journalThenApply(e Entry) error {
	if err := l.w.Append(e); err != nil {
		return err
	}
	return apply(l.Engine, e)
}

// AddUser journals, then applies.
func (l *Logged) AddUser(handle string) error {
	return l.journalThenApply(Entry{Op: OpAddUser, User: handle})
}

// Follow journals, then applies.
func (l *Logged) Follow(follower, followee string) error {
	return l.journalThenApply(Entry{Op: OpFollow, User: follower, Followee: followee})
}

// Unfollow journals, then applies.
func (l *Logged) Unfollow(follower, followee string) error {
	return l.journalThenApply(Entry{Op: OpUnfollow, User: follower, Followee: followee})
}

// AddCampaign journals, then applies.
func (l *Logged) AddCampaign(name string, budget float64, start, end time.Time) error {
	return l.journalThenApply(Entry{Op: OpAddCampaign, Campaign: &CampaignEntry{
		Name: name, Budget: budget, Start: start, End: end,
	}})
}

// AddAd journals, then applies.
func (l *Logged) AddAd(ad caar.Ad) error {
	return l.journalThenApply(Entry{Op: OpAddAd, Ad: &ad})
}

// RemoveAd journals, then applies.
func (l *Logged) RemoveAd(id string) error {
	return l.journalThenApply(Entry{Op: OpRemoveAd, AdID: id})
}

// Post journals, then applies.
func (l *Logged) Post(author, text string, at time.Time) error {
	return l.journalThenApply(PostEntry(author, text, at))
}

// CheckIn journals, then applies.
func (l *Logged) CheckIn(user string, lat, lng float64, at time.Time) error {
	return l.journalThenApply(CheckInEntry(user, lat, lng, at))
}

// Invariants annotates the engine's report with the ops that remain
// apply-first (impressions: the engine decides billability before the entry
// exists), so the soak ledger knows which acks carry weaker guarantees.
func (l *Logged) Invariants() caar.InvariantReport {
	rep := l.Engine.Invariants()
	rep.ApplyFirstOps = []string{string(OpImpression)}
	return rep
}

// ServeImpression applies and, when billable, journals the impression, the
// user's included, so frequency-capping state survives recovery.
func (l *Logged) ServeImpression(user, adID string, at time.Time) (bool, error) {
	served, err := l.Engine.ServeImpression(user, adID, at)
	if err != nil || !served {
		return served, err
	}
	return served, l.w.Append(Entry{Op: OpImpression, User: user, AdID: adID, At: at})
}
