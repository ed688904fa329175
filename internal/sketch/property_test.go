package sketch

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

// TestCountMinOverestimateBoundProperty: for random streams, every point
// query is ≥ the true count and — with headroom for the per-key δ failure
// probability — within the advertised ε·N bound.
func TestCountMinOverestimateBoundProperty(t *testing.T) {
	f := func(keys []uint64, weights []uint16) bool {
		cm, err := NewCountMin(0.01, 0.01)
		if err != nil {
			return false
		}
		truth := map[uint64]uint64{}
		for i, k := range keys {
			w := uint64(1)
			if i < len(weights) {
				w = uint64(weights[i]) + 1
			}
			cm.Add(k, w)
			truth[k] += w
		}
		bound := cm.ErrorBound()
		violations := 0
		for k, want := range truth {
			got := cm.Count(k)
			if got < want {
				return false // the hard one-sided guarantee
			}
			if got > want+bound {
				violations++
			}
		}
		// ε·N holds per key with prob ≥ 1−δ; allow a small tail.
		return violations <= len(truth)/20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestWindowedDecayMonotonicity: with no new offers, advancing time never
// increases a key's windowed estimate, and after the whole ring ages out
// the estimate is exactly zero.
func TestWindowedDecayMonotonicity(t *testing.T) {
	const span = time.Second
	w, err := NewWindowed(10, 0.01, 0.01, span, 6)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(1000, 0)
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		w.Offer(uint64(rng.Intn(40)), 1, t0.Add(time.Duration(i)*4*time.Millisecond))
	}
	prev := w.Total(t0, 0)
	prevHot := w.estimate(7, w.covered(0))
	for step := 1; step <= 8; step++ {
		now := t0.Add(time.Duration(step) * span)
		total := w.Total(now, 0)
		hot := w.estimate(7, w.covered(0))
		if total > prev || hot > prevHot {
			t.Fatalf("step %d: decay not monotone: total %d→%d key7 %d→%d",
				step, prev, total, prevHot, hot)
		}
		prev, prevHot = total, hot
	}
	// 8 spans > 6-sub ring: everything has aged out.
	if prev != 0 || len(w.TopK(t0.Add(8*span), 0)) != 0 {
		t.Fatalf("ring not empty after full decay: total=%d", prev)
	}
}

func TestWindowedSlidingQueryWindows(t *testing.T) {
	const span = 10 * time.Second
	w, err := NewWindowed(5, 0.01, 0.01, span, 6)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Unix(86400, 0)
	// One offer per sub-window, distinct keys, walking forward in time.
	for i := 0; i < 6; i++ {
		w.Offer(uint64(100+i), uint64(10+i), t0.Add(time.Duration(i)*span))
	}
	now := t0.Add(5 * span)
	if got := w.Total(now, span); got != 15 {
		t.Fatalf("1-sub window total = %d, want 15", got)
	}
	if got := w.Total(now, 3*span); got != 13+14+15 {
		t.Fatalf("3-sub window total = %d", got)
	}
	if got := w.Total(now, 0); got != 10+11+12+13+14+15 {
		t.Fatalf("full window total = %d", got)
	}
	// A window request beyond the ring clamps to the ring.
	if got := w.Total(now, 100*span); got != w.Total(now, 0) {
		t.Fatalf("over-long window not clamped: %d", got)
	}
	top := w.TopK(now, 2*span)
	if len(top) != 2 || top[0].Key != 105 || top[1].Key != 104 {
		t.Fatalf("2-sub TopK = %v", top)
	}
	if w.CoveredSpan(15*time.Second) != 2*span {
		t.Fatalf("CoveredSpan(15s) = %v", w.CoveredSpan(15*time.Second))
	}
	// A window near the largest Duration reads the whole ring; rounding it
	// up must not overflow into the smallest window.
	if huge := 9223372036 * time.Second; w.CoveredSpan(huge) != 6*span || w.Total(now, huge) != w.Total(now, 0) {
		t.Fatalf("CoveredSpan(%v) = %v, want the full %v ring", huge, w.CoveredSpan(huge), 6*span)
	}
}

func TestWindowedErrorBoundCoversEstimates(t *testing.T) {
	const span = time.Second
	w, _ := NewWindowed(8, 0.005, 0.01, span, 4)
	t0 := time.Unix(5000, 0)
	truth := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(3))
	z := rand.NewZipf(rng, 1.4, 1, 1<<12)
	for i := 0; i < 20000; i++ {
		k := z.Uint64()
		// all within one span: nothing decays mid-test
		w.Offer(k, 1, t0.Add(time.Duration(i)*time.Microsecond))
		truth[k]++
	}
	bound := w.ErrorBound(t0, 0)
	for _, c := range w.TopK(t0, 0) {
		want := truth[c.Key]
		if c.Count < want {
			t.Fatalf("key %d under-estimated: %d < %d", c.Key, c.Count, want)
		}
		if c.Count > want+bound {
			t.Fatalf("key %d outside bound: est %d true %d bound %d", c.Key, c.Count, want, bound)
		}
	}
}

func TestWindowedValidation(t *testing.T) {
	if _, err := NewWindowed(5, 0.01, 0.01, -time.Second, 4); err == nil {
		t.Error("negative span accepted")
	}
	if _, err := NewWindowed(5, 0.01, 0.01, 0, 4); err == nil {
		t.Error("zero span accepted")
	}
	if _, err := NewWindowed(5, 0.01, 0.01, time.Second, 0); err == nil {
		t.Error("n=0 accepted")
	}
	if _, err := NewWindowed(0, 0.01, 0.01, time.Second, 4); err == nil {
		t.Error("k=0 accepted")
	}
}

// TestWindowedReset: a clock step past the whole ring resets every
// sub-window at once — no weight and no candidate survives it.
func TestWindowedReset(t *testing.T) {
	w, _ := NewWindowed(4, 0.01, 0.01, time.Second, 3)
	w.Offer(9, 9, time.Unix(50, 0))
	w.Offer(8, 1, time.Unix(51, 0))
	later := time.Unix(60, 0)
	if w.Total(later, 0) != 0 || len(w.Candidates()) != 0 {
		t.Fatal("ring not reset after aging out whole")
	}
}

// FuzzCountMinEstimate feeds arbitrary key streams and checks the sketch's
// hard invariants: point queries never under-estimate and totals add up.
func FuzzCountMinEstimate(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 1, 2, 3, 4, 5, 6, 7, 9})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<14 {
			data = data[:1<<14]
		}
		var keys []uint64
		for i := 0; i+8 <= len(data); i += 8 {
			keys = append(keys, binary.LittleEndian.Uint64(data[i:]))
		}
		whole, err := NewCountMin(0.05, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		truth := map[uint64]uint64{}
		for _, k := range keys {
			whole.Add(k, 1)
			truth[k]++
		}
		var n uint64
		for k, want := range truth {
			n += want
			if got := whole.Count(k); got < want {
				t.Fatalf("Count(%d) = %d < true %d", k, got, want)
			}
		}
		if whole.Total() != n {
			t.Fatalf("Total = %d, want %d", whole.Total(), n)
		}
	})
}

// FuzzWindowedDecay drives a windowed sketch with an arbitrary interleaving
// of offers and clock steps and checks the ring's invariants: the windowed
// total never exceeds the weight offered, never under-runs the weight
// offered within the newest sub-window, and a full ring of idle spans
// drains it to zero.
func FuzzWindowedDecay(f *testing.F) {
	f.Add([]byte{10, 1, 200, 10, 3, 0, 7, 2})
	f.Add([]byte{255, 255, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<12 {
			data = data[:1<<12]
		}
		const span = time.Second
		const n = 4
		w, err := NewWindowed(6, 0.02, 0.02, span, n)
		if err != nil {
			t.Fatal(err)
		}
		now := time.Unix(10000, 0)
		var offered uint64
		for i := 0; i+1 < len(data); i += 2 {
			key, step := uint64(data[i]), data[i+1]
			if step&1 == 0 {
				w.Offer(key, uint64(step)+1, now)
				offered += uint64(step) + 1
			} else {
				now = now.Add(time.Duration(step) * span / 4)
				w.Advance(now)
			}
			if got := w.Total(now, 0); got > offered {
				t.Fatalf("windowed total %d exceeds offered %d", got, offered)
			}
		}
		w.Advance(now.Add((n + 1) * span))
		if got := w.Total(now.Add((n+1)*span), 0); got != 0 {
			t.Fatalf("ring holds %d after full idle decay", got)
		}
	})
}
