//go:build !race

package ingest

import (
	"testing"

	caar "caar"
	"caar/journal"
)

// stubEngine accepts every write and applies it nowhere; its batch entry
// points return the one error slice it owns, so what a test counts is the
// pipeline's.
type stubEngine struct{ errs []error }

func (*stubEngine) ValidateUser(string) error                      { return nil }
func (*stubEngine) ValidateCheckIn(string, float64, float64) error { return nil }
func (s *stubEngine) PostBatch(reqs []caar.PostRequest) []error    { return s.errs[:len(reqs)] }
func (s *stubEngine) CheckInBatch(reqs []caar.CheckInRequest) []error {
	return s.errs[:len(reqs)]
}

// stubJournal commits everything and writes nothing.
type stubJournal struct{}

func (stubJournal) AppendBatch([]journal.Entry) error { return nil }
func (stubJournal) SyncPending() error                { return nil }

// TestSubmitPostAllocations pins what the pipeline allocates per post,
// accept to apply, around an engine and a journal that allocate nothing: the
// item and its ack channel come from a pool, the committer's batch and the
// entries it commits are handed back for the next batch, and the applier
// applies in a journal.Applier's buffers, where a post allocated 7 times. A
// race build drops pooled items, so this file is not built there.
func TestSubmitPostAllocations(t *testing.T) {
	cfg := Config{}
	cfg.setDefaults()
	p := New(&stubEngine{errs: make([]error, cfg.MaxBatch)}, stubJournal{}, nil, cfg)
	defer p.Close()
	submit := func() {
		if err := p.SubmitPost("alice", "coffee and jazz tonight", t0); err != nil {
			t.Fatal(err)
		}
	}
	for range 100 {
		submit()
	}
	got := testing.AllocsPerRun(500, submit)
	t.Logf("SubmitPost through stub engine and journal: %.2f allocations", got)
	if got > 0 {
		t.Fatalf("SubmitPost allocates %.2f times, want 0", got)
	}
}
