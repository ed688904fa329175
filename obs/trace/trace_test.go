package trace

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

func finished(id string, d time.Duration, err error) *Trace {
	tr := New(id, "u", 5, time.Unix(1000, 0), time.Unix(1000, 0))
	tr.Finish(d, err)
	return tr
}

// TestEvictionOrder: the ring buffer keeps exactly the most recent Capacity
// traces, List returns them newest first, and evicted traces are no longer
// reachable by ID.
func TestEvictionOrder(t *testing.T) {
	s := NewStore(Config{Capacity: 3, SampleRate: 1})
	for i := 1; i <= 5; i++ {
		tr := finished(fmt.Sprintf("t%d", i), time.Millisecond, nil)
		tr.HeadSampled = s.SampleNext()
		if !s.Add(tr) {
			t.Fatalf("trace t%d not captured at rate 1", i)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3", s.Len())
	}
	got := s.List(0)
	want := []string{"t5", "t4", "t3"}
	for i, w := range want {
		if got[i].ID != w {
			t.Errorf("List[%d] = %s, want %s", i, got[i].ID, w)
		}
	}
	for _, evicted := range []string{"t1", "t2"} {
		if s.Get(evicted) != nil {
			t.Errorf("evicted trace %s still reachable by ID", evicted)
		}
	}
	if s.Get("t4") == nil {
		t.Error("resident trace t4 not reachable by ID")
	}
	if ls := s.List(2); len(ls) != 2 || ls[0].ID != "t5" {
		t.Errorf("List(2) = %v, want [t5 t4]", ls)
	}
}

// TestTailCaptureBypassesSampling: with head sampling fully off, slow and
// errored traces are still captured — the flight recorder's whole point —
// while ordinary fast successes are dropped.
func TestTailCaptureBypassesSampling(t *testing.T) {
	s := NewStore(Config{Capacity: 8, SampleRate: 0, SlowThreshold: 100 * time.Millisecond})

	fast := finished("fast", time.Millisecond, nil)
	fast.HeadSampled = s.SampleNext()
	if s.Add(fast) {
		t.Fatal("fast successful trace captured despite sampling off")
	}

	slow := finished("slow", 150*time.Millisecond, nil)
	slow.HeadSampled = s.SampleNext()
	if !s.Add(slow) {
		t.Fatal("slow trace not tail-captured")
	}
	if slow.CaptureReason != ReasonSlow {
		t.Errorf("slow capture reason = %q, want %q", slow.CaptureReason, ReasonSlow)
	}

	failed := finished("failed", time.Millisecond, errors.New("unknown user"))
	failed.HeadSampled = s.SampleNext()
	if !s.Add(failed) {
		t.Fatal("errored trace not tail-captured")
	}
	if failed.CaptureReason != ReasonError {
		t.Errorf("error capture reason = %q, want %q", failed.CaptureReason, ReasonError)
	}
	if failed.Outcome != OutcomeError || failed.Error == "" {
		t.Errorf("errored trace outcome = %q error = %q", failed.Outcome, failed.Error)
	}

	forced := finished("forced", time.Millisecond, nil)
	forced.Forced = true
	if !s.Add(forced) {
		t.Fatal("explain-forced trace not captured")
	}
	if forced.CaptureReason != ReasonExplain {
		t.Errorf("forced capture reason = %q, want %q", forced.CaptureReason, ReasonExplain)
	}

	if s.Len() != 3 {
		t.Fatalf("store holds %d traces, want 3 (slow, failed, forced)", s.Len())
	}
}

// TestHeadSamplingRate: a rate of 1/4 deterministically admits every 4th
// request starting with the first, so low-QPS deployments still trace.
func TestHeadSamplingRate(t *testing.T) {
	s := NewStore(Config{Capacity: 64, SampleRate: 0.25})
	admitted := 0
	for i := 0; i < 40; i++ {
		if s.SampleNext() {
			admitted++
		}
	}
	if admitted != 10 {
		t.Errorf("rate 0.25 admitted %d of 40, want 10", admitted)
	}

	// The period is ⌈1/rate⌉, never rounded down: 0.7 keeps every 2nd
	// request (not every one), 0.3 every 4th (not every 3rd).
	for _, c := range []struct {
		rate   float64
		period int
	}{{0.7, 2}, {0.3, 4}, {0.01, 100}} {
		s := NewStore(Config{Capacity: 4, SampleRate: c.rate})
		for i := 0; i < 3*c.period; i++ {
			if got, want := s.SampleNext(), i%c.period == 0; got != want {
				t.Fatalf("rate %g, request %d: admitted %v, want a sampling period of %d", c.rate, i, got, c.period)
			}
		}
	}

	always := NewStore(Config{Capacity: 4, SampleRate: 1})
	for i := 0; i < 5; i++ {
		if !always.SampleNext() {
			t.Fatal("rate 1 must admit every request")
		}
	}
}

// TestDuplicateIDEviction: when a client reuses a request ID, eviction of
// the older trace must not unmap the newer one.
func TestDuplicateIDEviction(t *testing.T) {
	s := NewStore(Config{Capacity: 2, SampleRate: 1})
	add := func(id string) *Trace {
		tr := finished(id, time.Millisecond, nil)
		tr.HeadSampled = s.SampleNext()
		s.Add(tr)
		return tr
	}
	add("dup")
	newer := add("dup")
	add("other") // evicts the older "dup"
	if got := s.Get("dup"); got != newer {
		t.Error("evicting the older duplicate unmapped the newer trace")
	}
}

// TestSpanAccessorsAndSummary covers the Trace convenience surface the
// server and CLI build on.
func TestSpanAccessorsAndSummary(t *testing.T) {
	tr := New("", "alice", 3, time.Unix(2000, 0), time.Unix(2000, 0))
	if tr.ID == "" {
		t.Fatal("empty ID not minted")
	}
	tr.AddSpan("retrieve", 2*time.Millisecond, 100, 100)
	tr.AddSpan("score", time.Millisecond, 120, 40)
	tr.AddAd(AdScore{AdID: "a1", Score: 1, Text: 0.5, Geo: 0.3, Bid: 0.2})
	tr.AddPolicyAction("a2", "dropped_frequency_cap")
	tr.Finish(5*time.Millisecond, nil)

	if sp := tr.Spans[1]; sp.Stage != "score" || sp.In != 120 || sp.Out != 40 {
		t.Errorf("second span = %+v", sp)
	}
	sum := tr.Summary()
	if sum.User != "alice" || sum.Ads != 1 || sum.Outcome != OutcomeOK ||
		sum.DurationSeconds != 0.005 {
		t.Errorf("Summary = %+v", sum)
	}
}
