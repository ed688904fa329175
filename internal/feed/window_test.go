package feed

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"caar/internal/textproc"
	"caar/internal/timeslot"
)

var t0 = time.Date(2026, 7, 6, 8, 0, 0, 0, time.UTC)

func msg(id int, author UserID, at time.Time, terms map[textproc.TermID]float64) *Post {
	var vec []textproc.Term
	for k, v := range terms {
		vec = append(vec, textproc.Term{ID: k, W: v})
	}
	return &Post{Message: Message{ID: MessageID(id), Author: author, Time: at, Vec: textproc.NewVector(vec)}}
}

// scaled is ctx times factor, by term.
func scaled(ctx textproc.SparseVector, factor float64) map[textproc.TermID]float64 {
	out := map[textproc.TermID]float64{}
	for _, t := range ctx {
		out[t.ID] = t.W * factor
	}
	return out
}

// aggregate is the window's context at q, the factor applied.
func aggregate(w *Window, q time.Time) map[textproc.TermID]float64 {
	return scaled(w.Aggregate(nil, q))
}

// directSum is Σ weight(m)·m.Vec over the window's resident messages, by term.
func directSum(w *Window, weight func(*Post) float64) map[textproc.TermID]float64 {
	want := map[textproc.TermID]float64{}
	for i := range w.Len() {
		m := w.At(i)
		for _, t := range m.Vec {
			want[t.ID] += t.W * weight(m)
		}
	}
	return want
}

// checkSorted fails unless v is a vector: ascending IDs, none twice.
func checkSorted(t *testing.T, v textproc.SparseVector) {
	t.Helper()
	for i := 1; i < len(v); i++ {
		if v[i-1].ID >= v[i].ID {
			t.Fatalf("aggregate not ascending at %d: %v", i, v)
		}
	}
}

func TestWindowPushAndEvict(t *testing.T) {
	w := NewWindow(2, timeslot.NewDecay(0))
	if len(w.ring) != 2 || w.Len() != 0 {
		t.Fatal("fresh window state wrong")
	}
	if w.Push(msg(1, 1, t0, map[textproc.TermID]float64{1: 1})) != nil {
		t.Fatal("first push should not evict")
	}
	if w.Push(msg(2, 1, t0.Add(time.Second), map[textproc.TermID]float64{2: 1})) != nil {
		t.Fatal("second push should not evict")
	}
	if ev := w.Push(msg(3, 1, t0.Add(2*time.Second), map[textproc.TermID]float64{3: 1})); ev == nil || ev.ID != 1 {
		t.Fatalf("third push evicted %v, want msg 1", ev)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	ctx := aggregate(w, t0.Add(2*time.Second))
	if _, has := ctx[1]; has {
		t.Fatal("evicted message's terms still in context")
	}
	if ctx[2] != 1 || ctx[3] != 1 {
		t.Fatalf("context = %v", ctx)
	}
}

func TestWindowMinCapacity(t *testing.T) {
	w := NewWindow(0, timeslot.NewDecay(0))
	if len(w.ring) != 1 {
		t.Fatalf("cap = %d, want 1 (clamped)", len(w.ring))
	}
}

func TestWindowDecayedContext(t *testing.T) {
	hl := time.Hour
	w := NewWindow(10, timeslot.NewDecay(hl))
	w.Push(msg(1, 1, t0, map[textproc.TermID]float64{1: 1}))
	w.Push(msg(2, 1, t0.Add(hl), map[textproc.TermID]float64{2: 1}))
	// At t0+1h: msg1 is one half-life old (0.5), msg2 fresh (1.0).
	ctx := aggregate(w, t0.Add(hl))
	if math.Abs(ctx[1]-0.5) > 1e-9 || math.Abs(ctx[2]-1) > 1e-9 {
		t.Fatalf("context at t0+1h = %v", ctx)
	}
	// One more half-life later everything halves again.
	ctx = aggregate(w, t0.Add(2*hl))
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
	ctx := aggregate(w, t0.Add(hl))
	if math.Abs(ctx[1]-1) > 1e-9 {
		t.Fatalf("fresh msg weight = %v, want 1", ctx[1])
	}
	if math.Abs(ctx[2]-0.5) > 1e-9 {
		t.Fatalf("late msg weight = %v, want 0.5", ctx[2])
	}
}

// TestWindowAggregateConsistent: the summed aggregate times the factor
// Aggregate returns is the context decayed to the query time.
func TestWindowAggregateConsistent(t *testing.T) {
	w := NewWindow(5, timeslot.NewDecay(30*time.Minute))
	w.Push(msg(1, 1, t0, map[textproc.TermID]float64{1: 0.6, 2: 0.8}))
	w.Push(msg(2, 1, t0.Add(10*time.Minute), map[textproc.TermID]float64{2: 1}))
	got := aggregate(w, t0.Add(45*time.Minute))
	// msg 1 is 1.5 half-lives old at the query, msg 2 35/30 of one.
	want := map[textproc.TermID]float64{
		1: 0.6 * math.Pow(2, -1.5),
		2: 0.8*math.Pow(2, -1.5) + math.Pow(2, -35.0/30),
	}
	for id, x := range want {
		if math.Abs(got[id]-x) > 1e-9 {
			t.Fatalf("term %d: Aggregate gives %v, want %v", id, got[id], x)
		}
	}
}

// TestWindowEntryWeight: each resident message, out-of-order ones included,
// weighs in the aggregate times the factor exactly its decay weight at the
// query time, whether the query is after the reference or before it.
func TestWindowEntryWeight(t *testing.T) {
	hl := time.Hour
	decay := timeslot.NewDecay(hl)
	w := NewWindow(5, decay)
	at := []time.Time{t0, t0.Add(hl), t0.Add(hl / 2), t0.Add(3 * hl)}
	for i, a := range at {
		w.Push(msg(i, 1, a, map[textproc.TermID]float64{textproc.TermID(i): 1}))
	}
	var ctx textproc.SparseVector
	for _, q := range []time.Time{t0.Add(3 * hl), t0.Add(4 * hl), t0.Add(2 * hl)} {
		var factor float64
		ctx, factor = w.Aggregate(ctx, q)
		got := scaled(ctx, factor)
		for i, a := range at {
			want := decay.Between(a, q)
			if got := got[textproc.TermID(i)]; math.Abs(got-want) > 1e-12 {
				t.Fatalf("query %v: message %d weighs %v, want %v", q.Sub(t0), i, got, want)
			}
		}
	}
}

// TestWindowRebuildCapsDrift: however many messages pass through a window,
// the aggregate is summed from the resident ones, so no drift builds up.
func TestWindowRebuildCapsDrift(t *testing.T) {
	decay := timeslot.NewDecay(time.Minute)
	w := NewWindow(3, decay)
	now := t0
	for i := 0; i < 3000; i++ {
		now = now.Add(time.Second)
		w.Push(msg(i, 1, now, map[textproc.TermID]float64{textproc.TermID(i % 5): 0.37}))
	}
	got := aggregate(w, now)
	want := directSum(w, func(m *Post) float64 { return decay.WeightAt(now.Sub(m.Time)) })
	for id := textproc.TermID(0); id < 5; id++ {
		if math.Abs(got[id]-want[id]) > 1e-12 {
			t.Fatalf("term %d drifted: %v vs %v", id, got[id], want[id])
		}
	}
}

// TestWindowScaledAggregateMatchesBruteForce runs 10 000 pushes, one in eight
// stamped out of order, with one idle gap of 600 half-lives (2^-600, tiny but
// not zero) and one of 1 200 (below the smallest float64). An evicted message
// must come back with the vector it was pushed with; after every push the
// aggregate times the factor must be Σ wᵢ·vecᵢ over the resident messages; and
// right after the 1 200-half-life gap it must be the new message alone, every
// older message weighing exactly nothing.
func TestWindowScaledAggregateMatchesBruteForce(t *testing.T) {
	const halfLife = time.Minute
	const vocab = 40
	rng := rand.New(rand.NewSource(5))
	decay := timeslot.NewDecay(halfLife)
	w := NewWindow(8, decay)
	pushed := map[MessageID]textproc.SparseVector{}
	var ctx textproc.SparseVector
	now := t0
	for i := 0; i < 10000; i++ {
		now = now.Add(time.Duration(1+rng.Intn(90)) * time.Second)
		switch i {
		case 3000:
			now = now.Add(600 * halfLife)
		case 6000:
			now = now.Add(1200 * halfLife)
		}
		at := now
		if rng.Intn(8) == 0 {
			at = now.Add(-time.Duration(1+rng.Intn(600)) * time.Second)
		}
		terms := map[textproc.TermID]float64{}
		for k := 0; k < 1+rng.Intn(4); k++ {
			terms[textproc.TermID(rng.Intn(vocab))] = 0.1 + rng.Float64()
		}
		m := msg(i, 1, at, terms)
		pushed[m.ID] = slices.Clone(m.Vec)

		if ev := w.Push(m); ev != nil {
			if want := pushed[ev.ID]; !slices.Equal(ev.Vec, want) {
				t.Fatalf("push %d: evicted message %d is %v, pushed as %v", i, ev.ID, ev.Vec, want)
			}
			delete(pushed, ev.ID)
		}

		q := w.Ref().Add(time.Duration(rng.Intn(120)) * time.Second)
		var factor float64
		ctx, factor = w.Aggregate(ctx, q)
		got := scaled(ctx, factor)
		want := directSum(w, func(r *Post) float64 { return decay.Between(r.Time, q) })
		for id := textproc.TermID(0); id < vocab; id++ {
			if got := got[id]; math.IsNaN(got) || math.Abs(got-want[id]) > 1e-12 {
				t.Fatalf("push %d term %d: aggregate %v, direct sum %v", i, id, got, want[id])
			}
		}
		if i == 6000 {
			got := aggregate(w, w.Ref())
			for id := textproc.TermID(0); id < vocab; id++ {
				if got := got[id]; got != terms[id] {
					t.Fatalf("after the gap, term %d weighs %v, want the new message's %v alone", id, got, terms[id])
				}
			}
		}
	}
}

// TestWindowAggregateMatchesDirectSum is the window's property test. Seeded
// random pushes — one in eight stamped out of order, two idle gaps of 1 200
// half-lives, a zero-decay window and a one-slot one among the shapes — go
// through a window and a plain FIFO side by side. After every push the
// window must have evicted what the FIFO did, hold what it holds in its order
// and keep the latest post time as its reference; and the aggregate summed
// into one reused vector, times the factor, must be Σ WeightAt(q − t)·vec
// over the resident messages to 1e-12 at a query time q not before the
// reference, a term no resident message has weighing nothing.
func TestWindowAggregateMatchesDirectSum(t *testing.T) {
	const vocab = 40
	for _, shape := range []struct {
		cap      int
		halfLife time.Duration
	}{{8, time.Minute}, {3, 0}, {1, time.Minute}} {
		t.Run(fmt.Sprintf("cap%d-halflife%v", shape.cap, shape.halfLife), func(t *testing.T) {
			rng := rand.New(rand.NewSource(5))
			decay := timeslot.NewDecay(shape.halfLife)
			w := NewWindow(shape.cap, decay)
			var fifo []*Post
			var latest time.Time
			var ctx textproc.SparseVector
			now := t0
			for i := 0; i < 4000; i++ {
				now = now.Add(time.Duration(1+rng.Intn(90)) * time.Second)
				if i == 1000 || i == 2500 {
					now = now.Add(1200 * time.Minute)
				}
				at := now
				if rng.Intn(8) == 0 {
					at = now.Add(-time.Duration(1+rng.Intn(600)) * time.Second)
				}
				terms := map[textproc.TermID]float64{}
				for k := 0; k < 1+rng.Intn(4); k++ {
					terms[textproc.TermID(rng.Intn(vocab))] = 0.1 + rng.Float64()
				}
				m := msg(i, 1, at, terms)
				if i == 0 || at.After(latest) {
					latest = at
				}

				ev := w.Push(m)
				if full := len(fifo) == shape.cap; (ev != nil) != full || (full && ev != fifo[0]) {
					t.Fatalf("push %d evicted %v, want %v", i, ev, full)
				}
				if len(fifo) == shape.cap {
					fifo = fifo[1:]
				}
				fifo = append(fifo, m)
				if w.Len() != len(fifo) || !w.Ref().Equal(latest) {
					t.Fatalf("push %d: Len %d, Ref %v; want %d, %v", i, w.Len(), w.Ref(), len(fifo), latest)
				}
				q := latest.Add(time.Duration(rng.Intn(120)) * time.Second)
				for j, f := range fifo {
					if got := w.At(j); got.ID != f.ID {
						t.Fatalf("push %d: At(%d) is message %d, want %d", i, j, got.ID, f.ID)
					}
				}
				want := directSum(w, func(f *Post) float64 { return decay.WeightAt(q.Sub(f.Time)) })

				var factor float64
				ctx, factor = w.Aggregate(ctx, q)
				checkSorted(t, ctx)
				got := scaled(ctx, factor)
				for id := textproc.TermID(0); id < vocab; id++ {
					if got := got[id]; math.Abs(got-want[id]) > 1e-12 {
						t.Fatalf("push %d term %d: aggregate %v, direct sum %v", i, id, got, want[id])
					}
				}
			}
		})
	}
}

// sortedAggregate is the aggregate as a sort makes it: every resident
// message's terms times its weight, oldest message first, through
// textproc.NewVector's stable sort and fold.
func sortedAggregate(w *Window) textproc.SparseVector {
	var terms []textproc.Term
	for i := range w.Len() {
		m := w.At(i)
		s := w.decay.WeightAt(w.ref.Sub(m.Time))
		for _, t := range m.Vec {
			terms = append(terms, textproc.Term{ID: t.ID, W: t.W * s})
		}
	}
	return textproc.NewVector(terms)
}

// FuzzAggregateMergeMatchesSort decodes data into a window's capacity and a
// stream of pushes — post times that move on or fall back, vectors over a
// small vocabulary so that messages share terms — and requires the merged
// aggregate, summed into one reused vector, to equal the sorted one term for
// term and bit for bit after every push.
func FuzzAggregateMergeMatchesSort(f *testing.F) {
	f.Add([]byte{3, 1, 2, 1, 5, 9, 0, 3, 2, 5, 7, 200, 4, 1, 2, 3, 4})
	// Three posts on the same two terms: summed newest first, term 0 comes
	// out a rounding step off.
	f.Add([]byte{2, 30, 1, 2, 0, 10, 1, 20, 40, 1, 2, 0, 100, 1, 33, 50, 1, 2, 0, 250, 1, 77})
	f.Add([]byte{1, 0, 1, 7, 0, 1, 7, 0, 1, 7})                             // a one-slot window, one term over and over
	f.Add([]byte{8, 5, 9, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 250, 2, 9, 8, 255}) // wide vectors, a step back in time
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		w := NewWindow(1+next()%12, timeslot.NewDecay(time.Minute))
		var ctx textproc.SparseVector
		now := t0
		for id := 0; len(data) > 0; id++ {
			// Mostly forward, by up to four minutes; one step in eight back.
			step := time.Duration(next()%240) * time.Second
			if next()%8 == 0 {
				step = -step
			}
			now = now.Add(step)
			var terms []textproc.Term
			for n := next() % 10; n > 0; n-- {
				terms = append(terms, textproc.Term{ID: textproc.TermID(next() % 16), W: float64(1+next()) / 7})
			}
			w.Push(&Post{Message: Message{ID: MessageID(id), Time: now, Vec: textproc.NewVector(terms)}})
			ctx, _ = w.Aggregate(ctx, now)
			want := sortedAggregate(w)
			if !slices.EqualFunc(ctx, want, func(x, y textproc.Term) bool {
				return x.ID == y.ID && math.Float64bits(x.W) == math.Float64bits(y.W)
			}) {
				t.Fatalf("push %d: merged aggregate %v, sorted %v", id, ctx, want)
			}
		}
	})
}
