//go:build !race

package journal

import (
	"io"
	"testing"
	"time"
)

// TestAppendBatchAllocations pins what group-committing one post costs once
// the frame buffers are warm: a post's entry is framed by hand into a pooled
// buffer, so the batch allocates nothing (json.Marshal and fmt.Appendf made
// it 5). A race build drops pooled
// items, so this file is not built there.
func TestAppendBatchAllocations(t *testing.T) {
	w := NewWriter(io.Discard)
	batch := []Entry{PostEntry("u1", "coffee and jazz tonight", time.Date(2026, 7, 6, 9, 0, 0, 0, time.UTC))}
	if err := w.AppendBatch(batch); err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		if err := w.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("AppendBatch of one post: %.0f allocations", got)
	if got > 0 {
		t.Fatalf("AppendBatch of one post allocates %.0f times, want 0", got)
	}
}
