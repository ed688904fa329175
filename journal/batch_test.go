package journal

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestAppendBatchGroupCommit checks the core group-commit property: a batch
// of N entries reaches the log with exactly one sync call, and every entry
// replays.
func TestAppendBatchGroupCommit(t *testing.T) {
	var log bytes.Buffer
	syncs := 0
	w := NewWriter(&log)
	w.syncFn = func() error { syncs++; return nil }

	batch := make([]Entry, 8)
	for i := range batch {
		batch[i] = Entry{Op: OpAddUser, User: fmt.Sprintf("u%02d", i)}
	}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("batch of %d entries took %d syncs, want 1", len(batch), syncs)
	}
	eng := newEngine(t)
	stats, err := Replay(bytes.NewReader(log.Bytes()), eng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Applied != len(batch) || stats.Skipped != 0 || stats.Torn {
		t.Fatalf("replay stats = %+v", stats)
	}
	if got := eng.Stats().Users; got != len(batch) {
		t.Fatalf("recovered %d users, want %d", got, len(batch))
	}
}

func TestAppendBatchEmptyAndInvalid(t *testing.T) {
	var log bytes.Buffer
	w := NewWriter(&log)
	if err := w.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if log.Len() != 0 {
		t.Fatal("empty batch wrote bytes")
	}
	if err := w.AppendBatch([]Entry{{Op: OpAddUser, User: "a"}, {}}); err == nil {
		t.Fatal("entry without op accepted")
	}
	if log.Len() != 0 {
		t.Fatal("invalid batch wrote bytes before validation")
	}
}

// TestIdleTailSyncsWithinInterval is the regression test for the idle-tail
// durability gap: with SyncIntervalPolicy, a record acknowledged inside the
// interval window was only fsynced by the NEXT append — if traffic stopped,
// it sat unsynced indefinitely. SyncPending (driven by the ingest committer's
// idle timer or adserver's ticker) must flush the deferred sync.
func TestIdleTailSyncsWithinInterval(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	w := NewFileWriter(f, SyncIntervalPolicy, 100*time.Millisecond)
	now := time.Unix(1000, 0)
	w.now = func() time.Time { return now }
	syncs := 0
	inner := w.syncFn
	w.syncFn = func() error { syncs++; return inner() }

	// First append: lastSync is zero, so the policy syncs.
	if err := w.Append(Entry{Op: OpAddUser, User: "a"}); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("first append took %d syncs, want 1", syncs)
	}
	// Second append lands inside the interval: acknowledged without a sync.
	now = now.Add(10 * time.Millisecond)
	if err := w.Append(Entry{Op: OpAddUser, User: "b"}); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("in-interval append synced eagerly: %d syncs", syncs)
	}
	// Traffic stops. The idle flush must persist the deferred tail.
	if err := w.SyncPending(); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("idle tail not flushed: %d syncs, want 2", syncs)
	}
	// Nothing pending now: further flushes are no-ops.
	if err := w.SyncPending(); err != nil {
		t.Fatal(err)
	}
	if syncs != 2 {
		t.Fatalf("SyncPending synced with nothing pending: %d syncs", syncs)
	}
}

func TestSyncPendingNoOpForAlwaysAndNever(t *testing.T) {
	for _, policy := range []SyncPolicy{SyncAlways, SyncNever} {
		path := filepath.Join(t.TempDir(), "journal.log")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := NewFileWriter(f, policy, 0)
		syncs := 0
		inner := w.syncFn
		w.syncFn = func() error { syncs++; return inner() }
		if err := w.Append(Entry{Op: OpAddUser, User: "a"}); err != nil {
			t.Fatal(err)
		}
		base := syncs
		if err := w.SyncPending(); err != nil {
			t.Fatal(err)
		}
		if syncs != base {
			t.Errorf("policy %v: SyncPending synced (%d -> %d)", policy, base, syncs)
		}
		f.Close()
	}
}

// TestConcurrentAppendBatchFrameIntegrity hammers one writer with
// interleaved Append and AppendBatch calls from many goroutines (run under
// -race in the suite) and then recovers the file: every frame must be
// intact, every entry must apply, and the tail must not be torn.
func TestConcurrentAppendBatchFrameIntegrity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "journal.log")
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := NewFileWriter(f, SyncNever, 0)

	const (
		writers = 8
		rounds  = 25
	)
	var wg sync.WaitGroup
	total := 0
	for g := 0; g < writers; g++ {
		// Mixed batch sizes, including 1 via plain Append.
		size := 1 + g%5
		if size > 1 {
			total += rounds * size
		} else {
			total += rounds
		}
		wg.Add(1)
		go func(g, size int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if size == 1 {
					if err := w.Append(Entry{Op: OpAddUser, User: fmt.Sprintf("g%d-r%d", g, r)}); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				batch := make([]Entry, size)
				for i := range batch {
					batch[i] = Entry{Op: OpAddUser, User: fmt.Sprintf("g%d-r%d-i%d", g, r, i)}
				}
				if err := w.AppendBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}(g, size)
	}
	wg.Wait()
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	eng := newEngine(t)
	stats, err := Recover(f, eng)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Torn {
		t.Fatalf("concurrent batches tore the log: %+v", stats)
	}
	if stats.Applied != total || stats.Skipped != 0 {
		t.Fatalf("recovered %d applied / %d skipped, want %d / 0", stats.Applied, stats.Skipped, total)
	}
}
