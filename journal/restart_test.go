package journal

// Tests for the one-file state protocol: a state file is a snapshot head
// followed by journal records. caar.OpenState restores the head and leaves
// the file at the first record, Recover replays the records, and a graceful
// shutdown replaces the whole file with a new head in one rename. Head and
// records never overlap, so no restart applies a record twice — campaign
// spend and vocabulary document frequencies are not idempotent.

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	caar "caar"
	"caar/internal/faultinject"
)

// snapMetrics extracts the non-idempotent state a double-replay would
// corrupt from a snapshot's JSON document.
type snapMetrics struct {
	Vocab struct {
		Docs int   `json:"docs"`
		DF   []int `json:"df"`
	} `json:"vocab"`
	Campaigns []struct {
		Name  string  `json:"name"`
		Spent float64 `json:"spent"`
	} `json:"campaigns"`
}

func metricsOf(t *testing.T, eng *caar.Engine) (docs, dfSum int, spent float64) {
	t.Helper()
	var m snapMetrics
	if err := json.Unmarshal([]byte(durableState(t, eng)), &m); err != nil {
		t.Fatal(err)
	}
	for _, df := range m.Vocab.DF {
		dfSum += df
	}
	for _, c := range m.Campaigns {
		spent += c.Spent
	}
	return m.Vocab.Docs, dfSum, spent
}

// durableState renders everything a head holds: users, edges, campaigns with
// their spend, ads and the vocabulary.
func durableState(t *testing.T, eng *caar.Engine) string {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// openState starts from the state file at path the way adserver does: the
// head, then the records after it.
func openState(t *testing.T, path string) (*caar.Engine, *os.File, ReplayStats) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := caar.OpenState(caar.DefaultConfig(), f)
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	stats, err := Recover(f, eng)
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	return eng, f, stats
}

// shutdown is adserver's graceful shutdown: flush the writer, then compact
// the state file to a head.
func shutdown(t *testing.T, path string, eng *caar.Engine, w *Writer, f *os.File) {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStateFileTwoCyclesNoDoubleApply walks two full graceful
// shutdown/restart cycles through one state file and asserts campaign spend
// and vocabulary statistics stay exact: each shutdown leaves a head alone,
// so recovery replays nothing the head already contains.
func TestStateFileTwoCyclesNoDoubleApply(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")

	// Live run: every mutation journaled, including a billable impression
	// (campaign spend) and posts (vocabulary document frequencies).
	eng1, f1, _ := openState(t, path)
	w1 := NewFileWriter(f1, SyncAlways, 0)
	driveLogged(t, NewLogged(eng1, w1))
	docs1, df1, spent1 := metricsOf(t, eng1)
	if spent1 == 0 {
		t.Fatal("test premise broken: no campaign spend recorded")
	}
	shutdown(t, path, eng1, w1, f1)

	restart := func() (*caar.Engine, *os.File) {
		t.Helper()
		eng, f, stats := openState(t, path)
		if stats.Applied != 0 || stats.Skipped != 0 {
			t.Fatalf("recovery after a graceful shutdown replayed %d / skipped %d entries, want 0/0",
				stats.Applied, stats.Skipped)
		}
		return eng, f
	}
	eng2, f2 := restart()
	if docs, df, spent := metricsOf(t, eng2); docs != docs1 || df != df1 || spent != spent1 {
		t.Fatalf("restart 1 state drifted: docs %d→%d, dfSum %d→%d, spent %v→%v",
			docs1, docs, df1, df, spent1, spent)
	}

	// New traffic after the restart is journaled after the head…
	w2 := NewFileWriter(f2, SyncAlways, 0)
	l2 := NewLogged(eng2, w2)
	served, err := l2.ServeImpression("", "shoes", t0.Add(time.Minute))
	if err != nil || !served {
		t.Fatalf("impression after restart: served=%v err=%v", served, err)
	}
	docs2, df2, spent2 := metricsOf(t, eng2)
	if spent2 <= spent1 {
		t.Fatalf("second impression did not charge: %v → %v", spent1, spent2)
	}

	// …and a second shutdown/restart cycle still converges instead of
	// compounding spend and DF on every restart.
	shutdown(t, path, eng2, w2, f2)
	eng3, f3 := restart()
	defer f3.Close()
	if docs, df, spent := metricsOf(t, eng3); docs != docs2 || df != df2 || spent != spent2 {
		t.Fatalf("restart 2 state drifted: docs %d→%d, dfSum %d→%d, spent %v→%v",
			docs2, docs, df2, df, spent2, spent)
	}
}

// TestShutdownCrashAtEveryStep kills a graceful shutdown at each of its
// steps — after the writer is flushed and before the save, and at every
// crash point of the save — over a state file that holds a head and
// records. Whichever step it dies at, the restart holds exactly the state
// that crashed: every acked write, and no record applied twice.
func TestShutdownCrashAtEveryStep(t *testing.T) {
	type crashed struct{}
	faultinject.SetCrashAction(func(string) { panic(crashed{}) })
	defer faultinject.SetCrashAction(nil)
	defer faultinject.DisarmCrashPoints()

	for _, point := range []string{"writer-closed", caar.CrashSnapshotPreFsync,
		caar.CrashSnapshotPreRename, caar.CrashSnapshotPostRename} {
		t.Run(point, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "state")
			eng, f, _ := openState(t, path)
			w := NewFileWriter(f, SyncAlways, 0)
			driveLogged(t, NewLogged(eng, w))
			shutdown(t, path, eng, w, f)

			// The crashing run appends acked writes after the head.
			eng, f, _ = openState(t, path)
			w = NewFileWriter(f, SyncAlways, 0)
			l := NewLogged(eng, w)
			at := t0.Add(time.Minute)
			for i, step := range []func() error{
				func() error { return l.AddUser("carol") },
				func() error { return l.Follow("carol", "bob") },
				func() error { return l.Post("bob", "espresso after the marathon", at) },
				func() error { _, err := l.ServeImpression("carol", "shoes", at); return err },
			} {
				if err := step(); err != nil {
					t.Fatalf("acked write %d: %v", i, err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			want := durableState(t, eng)
			docs, df, spent := metricsOf(t, eng)
			posts := eng.Stats().PostsDelivered

			if point != "writer-closed" {
				if err := faultinject.ArmCrashPoints(point); err != nil {
					t.Fatal(err)
				}
				func() {
					defer func() {
						if r := recover(); r != (crashed{}) {
							t.Fatalf("save ended with %v, want the armed crash", r)
						}
					}()
					eng.SaveSnapshot(path) //nolint:errcheck // dies before it returns
				}()
				faultinject.DisarmCrashPoints()
			}
			f.Close()

			restarted, rf, _ := openState(t, path)
			defer rf.Close()
			if d, s, sp := metricsOf(t, restarted); d != docs || s != df || sp != spent {
				t.Fatalf("restart drifted: docs %d→%d, dfSum %d→%d, spent %v→%v", docs, d, df, s, spent, sp)
			}
			if p := restarted.Stats().PostsDelivered; p != posts {
				t.Fatalf("restart counts %d applied posts, want the %d that crashed", p, posts)
			}
			if got := durableState(t, restarted); got != want {
				t.Fatalf("restarted state differs from the state that crashed:\n%s\nwant:\n%s", got, want)
			}
			if err := restarted.AddUser("carol"); !errors.Is(err, caar.ErrDuplicate) {
				t.Fatalf("acked AddUser(carol) lost: re-adding gave %v", err)
			}
		})
	}
}

// TestRecoverRejectsHead: Recover called where a head starts — the caller
// skipped caar.OpenState — is an error, and the file is left as it was
// rather than truncated at the head.
func TestRecoverRejectsHead(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state")
	eng := newEngine(t)
	driveLogged(t, NewLogged(eng, NewWriter(&bytes.Buffer{})))
	if err := eng.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := Recover(f, newEngine(t)); err == nil {
		t.Fatal("Recover accepted a snapshot head as records")
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("Recover changed the file (%d → %d bytes, %v)", len(before), len(after), err)
	}
}

// TestRecoverZeroFilledFirstRecord: a power loss can leave a head-less
// file's first record as a block of zeros. That is a torn record, not a
// head, so the file opens a fresh engine and Recover truncates it.
func TestRecoverZeroFilledFirstRecord(t *testing.T) {
	var log bytes.Buffer
	driveLogged(t, NewLogged(newEngine(t), NewWriter(&log)))
	raw := log.Bytes()
	first := bytes.IndexByte(raw, '\n')
	clear(raw[:first])
	path := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, f, stats := openState(t, path)
	defer f.Close()
	if !stats.Torn || stats.Applied != 0 || stats.DiscardedBytes != int64(len(raw)) {
		t.Fatalf("recover: %+v, want the whole file cut as torn", stats)
	}
	if fi, err := f.Stat(); err != nil || fi.Size() != 0 || eng.Stats().Users != 0 {
		t.Fatalf("after recover: %v bytes (%v), %d users; want an empty file and a fresh engine", fi.Size(), err, eng.Stats().Users)
	}
}

// TestCatOfTwoFileStateRecoversItsState: the testdata files were written by
// the two-file layout this one replaces — a snapshot from a graceful
// shutdown, then the journal a crash left after it — together with the
// durable state that layout restarted to. Concatenated, snapshot first, they
// are one state file that opens to that same state.
func TestCatOfTwoFileStateRecoversItsState(t *testing.T) {
	var state []byte
	for _, name := range []string{"two_file.snap", "two_file.log"} {
		raw, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		state = append(state, raw...)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "two_file_restart.json"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state")
	if err := os.WriteFile(path, state, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, f, stats := openState(t, path)
	defer f.Close()
	if stats.Applied == 0 || stats.Skipped != 0 || stats.Torn {
		t.Fatalf("records after the head: %+v, want all applied", stats)
	}
	if got := durableState(t, eng); got != string(want) {
		t.Fatalf("state differs from the two-file restart:\n%s\nwant:\n%s", got, want)
	}
}

// TestReplaySurfacesReadErrors distinguishes a failing read from a clean
// end-of-log: both strict and recover-mode replay must return the error so
// Recover aborts instead of truncating valid records at the failure point.
func TestReplaySurfacesReadErrors(t *testing.T) {
	var log bytes.Buffer
	driveLogged(t, NewLogged(newEngine(t), NewWriter(&log)))
	raw := log.Bytes()
	firstRec := int64(bytes.IndexByte(raw, '\n') + 1)
	budget := firstRec + 3 // the read fails partway through record two

	_, err := Replay(&faultinject.FailingReader{R: bytes.NewReader(raw), Budget: budget}, newEngine(t))
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("strict replay swallowed read error: %v", err)
	}

	stats, err := replay(&faultinject.FailingReader{R: bytes.NewReader(raw), Budget: budget}, newEngine(t), true, nil)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("recover-mode replay swallowed read error: %v", err)
	}
	if stats.Torn {
		t.Fatal("read error misreported as torn tail")
	}
	if stats.ValidBytes != firstRec {
		t.Fatalf("ValidBytes = %d, want %d (end of record one)", stats.ValidBytes, firstRec)
	}
}
