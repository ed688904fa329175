package feed

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"caar/internal/textproc"
	"caar/internal/timeslot"
)

var t0 = time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)

func msg(id int, author UserID, at time.Time, terms map[textproc.TermID]float64) Message {
	vec := textproc.SparseVector{}
	for k, v := range terms {
		vec[k] = v
	}
	return Message{ID: MessageID(id), Author: author, Time: at, Vec: vec}
}

func TestWindowPushAndEvict(t *testing.T) {
	w := NewWindow(2, timeslot.NewDecay(0))
	if w.Cap() != 2 || w.Len() != 0 {
		t.Fatal("fresh window state wrong")
	}
	if _, ok := w.Push(msg(1, 1, t0, map[textproc.TermID]float64{1: 1})); ok {
		t.Fatal("first push should not evict")
	}
	if _, ok := w.Push(msg(2, 1, t0.Add(time.Second), map[textproc.TermID]float64{2: 1})); ok {
		t.Fatal("second push should not evict")
	}
	ev, ok := w.Push(msg(3, 1, t0.Add(2*time.Second), map[textproc.TermID]float64{3: 1}))
	if !ok || ev.Msg.ID != 1 {
		t.Fatalf("third push evicted %v, want msg 1", ev.Msg.ID)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	ctx := w.Context(t0.Add(2 * time.Second))
	if _, has := ctx[1]; has {
		t.Fatal("evicted message's terms still in context")
	}
	if ctx[2] != 1 || ctx[3] != 1 {
		t.Fatalf("context = %v", ctx)
	}
}

func TestWindowMinCapacity(t *testing.T) {
	w := NewWindow(0, timeslot.NewDecay(0))
	if w.Cap() != 1 {
		t.Fatalf("Cap = %d, want 1 (clamped)", w.Cap())
	}
}

func TestWindowDecayedContext(t *testing.T) {
	hl := time.Hour
	w := NewWindow(10, timeslot.NewDecay(hl))
	w.Push(msg(1, 1, t0, map[textproc.TermID]float64{1: 1}))
	w.Push(msg(2, 1, t0.Add(hl), map[textproc.TermID]float64{2: 1}))
	// At t0+1h: msg1 is one half-life old (0.5), msg2 fresh (1.0).
	ctx := w.Context(t0.Add(hl))
	if math.Abs(ctx[1]-0.5) > 1e-9 || math.Abs(ctx[2]-1) > 1e-9 {
		t.Fatalf("context at t0+1h = %v", ctx)
	}
	// One more half-life later everything halves again.
	ctx = w.Context(t0.Add(2 * hl))
	if math.Abs(ctx[1]-0.25) > 1e-9 || math.Abs(ctx[2]-0.5) > 1e-9 {
		t.Fatalf("context at t0+2h = %v", ctx)
	}
}

func TestWindowOutOfOrderArrival(t *testing.T) {
	hl := time.Hour
	w := NewWindow(10, timeslot.NewDecay(hl))
	w.Push(msg(1, 1, t0.Add(hl), map[textproc.TermID]float64{1: 1}))
	// Late arrival: posted at t0, delivered after msg1. Its weight must
	// reflect its true age, not its arrival order.
	w.Push(msg(2, 1, t0, map[textproc.TermID]float64{2: 1}))
	ctx := w.Context(t0.Add(hl))
	if math.Abs(ctx[1]-1) > 1e-9 {
		t.Fatalf("fresh msg weight = %v, want 1", ctx[1])
	}
	if math.Abs(ctx[2]-0.5) > 1e-9 {
		t.Fatalf("late msg weight = %v, want 0.5", ctx[2])
	}
}

func TestWindowContextRefConsistent(t *testing.T) {
	w := NewWindow(5, timeslot.NewDecay(30*time.Minute))
	w.Push(msg(1, 1, t0, map[textproc.TermID]float64{1: 0.6, 2: 0.8}))
	w.Push(msg(2, 1, t0.Add(10*time.Minute), map[textproc.TermID]float64{2: 1}))
	q := t0.Add(45 * time.Minute)
	direct := w.Context(q)
	raw, factor := w.ContextRef(q)
	for id, want := range direct {
		if got := raw[id] * factor; math.Abs(got-want) > 1e-9 {
			t.Fatalf("term %d: ContextRef gives %v, Context gives %v", id, got, want)
		}
	}
}

// TestWindowEntryWeight: a resident entry's stored weight, times the factor
// ContextRef returns, is its decay weight at the query time.
func TestWindowEntryWeight(t *testing.T) {
	hl := time.Hour
	w := NewWindow(5, timeslot.NewDecay(hl))
	w.Push(msg(1, 1, t0, map[textproc.TermID]float64{1: 1}))
	_, factor := w.ContextRef(t0.Add(hl))
	if got := w.Entries()[0].wRef * factor; math.Abs(got-0.5) > 1e-9 {
		t.Fatalf("entry weight = %v, want 0.5", got)
	}
}

// TestWindowAggregateMatchesDirectSum is the core invariant: the incremental
// epoch-rescaled aggregate must equal the direct sum over resident messages
// at all times, across pushes, evictions, decays and out-of-order arrivals.
func TestWindowAggregateMatchesDirectSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	decay := timeslot.NewDecay(20 * time.Minute)
	w := NewWindow(8, decay)
	now := t0
	for i := 0; i < 600; i++ {
		// mostly forward time, occasionally out-of-order
		jitter := time.Duration(rng.Intn(120)-10) * time.Second
		now = now.Add(time.Duration(rng.Intn(60)) * time.Second)
		postAt := now.Add(jitter)
		terms := map[textproc.TermID]float64{}
		for k := 0; k < 1+rng.Intn(4); k++ {
			terms[textproc.TermID(rng.Intn(30))] = rng.Float64()
		}
		w.Push(msg(i, 1, postAt, terms))

		q := now.Add(time.Duration(rng.Intn(300)) * time.Second)
		got := w.Context(q)
		want := textproc.SparseVector{}
		for _, e := range w.Entries() {
			// Between is the pure (unclamped) exponential the window
			// implements; content stamped after q weighs slightly > 1.
			want.AddScaled(e.Msg.Vec, decay.Between(e.Msg.Time, q))
		}
		for id, x := range want {
			if math.Abs(got[id]-x) > 1e-6 {
				t.Fatalf("step %d term %d: incremental %v, direct %v", i, id, got[id], x)
			}
		}
		if len(got) > len(want) {
			for id, x := range got {
				if _, ok := want[id]; !ok && math.Abs(x) > 1e-6 {
					t.Fatalf("step %d: stale term %d weight %v", i, id, x)
				}
			}
		}
	}
}

func TestWindowRebuildCapsDrift(t *testing.T) {
	// Push far more than rebuildInterval messages through a tiny window and
	// verify the aggregate stays exact.
	decay := timeslot.NewDecay(time.Minute)
	w := NewWindow(3, decay)
	now := t0
	for i := 0; i < 3*rebuildInterval; i++ {
		now = now.Add(time.Second)
		w.Push(msg(i, 1, now, map[textproc.TermID]float64{textproc.TermID(i % 5): 0.37}))
	}
	got := w.Context(now)
	want := textproc.SparseVector{}
	for _, e := range w.Entries() {
		want.AddScaled(e.Msg.Vec, decay.WeightAt(now.Sub(e.Msg.Time)))
	}
	for id, x := range want {
		if math.Abs(got[id]-x) > 1e-9 {
			t.Fatalf("term %d drifted: %v vs %v", id, got[id], x)
		}
	}
}

// TestWindowScaledAggregateMatchesBruteForce checks the scale-divided
// representation against the definition, Σ wᵢ·vecᵢ over the resident
// messages, after each of 10 000 pushes: one in eight stamped out of order,
// steady decay that folds the scale back into the stored values many times
// over, one idle gap that alone forces that renormalisation, and one long
// enough to flush the scale to exactly zero. An evicted entry must carry its
// true weight at the reference time it left under, a resident entry must
// weigh what its age says, and a term no resident message has must weigh nothing.
func TestWindowScaledAggregateMatchesBruteForce(t *testing.T) {
	const halfLife = time.Minute
	rng := rand.New(rand.NewSource(5))
	decay := timeslot.NewDecay(halfLife)
	w := NewWindow(8, decay)
	// Within 1e-9 of the direct sum, or under the 1e-12 at which an evicted
	// term's remainder counts as zero and leaves the aggregate.
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*math.Abs(want)+1e-11 }

	now := t0
	var renormalised, flushed int
	for i := 0; i < 10000; i++ {
		now = now.Add(time.Duration(1+rng.Intn(90)) * time.Second)
		switch i {
		case 3000:
			now = now.Add(600 * halfLife) // 2^-600 ≈ 2e-181: under the 1e-150 floor at once
		case 6000:
			now = now.Add(1200 * halfLife) // 2^-1200: below the smallest float64
		}
		at := now
		if rng.Intn(8) == 0 {
			at = now.Add(-time.Duration(1+rng.Intn(600)) * time.Second)
		}
		terms := map[textproc.TermID]float64{}
		for k := 0; k < 1+rng.Intn(4); k++ {
			terms[textproc.TermID(rng.Intn(40))] = 0.1 + rng.Float64()
		}

		oldRef, oldScale := w.Ref(), w.scale
		ev, evicted := w.Push(msg(i, 1, at, terms))
		if evicted {
			if want := decay.Between(ev.Msg.Time, oldRef); !near(ev.wRef, want) {
				t.Fatalf("push %d: evicted entry weighs %v at the old reference, want %v", i, ev.wRef, want)
			}
		}
		if w.scale > 1 || w.scale < 1e-150 {
			t.Fatalf("push %d: scale %v left outside [1e-150, 1]", i, w.scale)
		}
		if factor := decay.Between(oldRef, w.Ref()); i > 0 && w.scale == 1 && oldScale*factor < 1 {
			if oldScale*factor > 0 {
				renormalised++
			} else {
				flushed++
			}
		}

		q := w.Ref().Add(time.Duration(rng.Intn(120)) * time.Second)
		got := w.Context(q)
		raw, factor := w.ContextRef(q)
		want := textproc.SparseVector{}
		for _, e := range w.Entries() {
			weight := decay.Between(e.Msg.Time, q)
			want.AddScaled(e.Msg.Vec, weight)
			if got := e.wRef * factor; !near(got, weight) {
				t.Fatalf("push %d: message %d weighs %v at the query time, want %v", i, e.Msg.ID, got, weight)
			}
		}
		for id := textproc.TermID(0); id < 40; id++ {
			if !near(got[id], want[id]) || !near(raw[id]*factor, want[id]) {
				t.Fatalf("push %d term %d: Context %v, ContextRef %v, direct sum %v (scale %v)",
					i, id, got[id], raw[id]*factor, want[id], w.scale)
			}
		}
	}
	t.Logf("scale folded back %d times, flushed to zero %d times", renormalised, flushed)
	if renormalised < 2 || flushed != 1 {
		t.Fatalf("scale folded back %d times and flushed to zero %d times: want several and exactly one", renormalised, flushed)
	}
}
