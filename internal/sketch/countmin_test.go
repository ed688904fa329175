package sketch

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewCountMinValidation(t *testing.T) {
	for _, c := range [][2]float64{{0, 0.1}, {1, 0.1}, {0.01, 0}, {0.01, 1}, {-1, 0.5}} {
		if _, err := NewCountMin(c[0], c[1]); err == nil {
			t.Errorf("NewCountMin(%v, %v) accepted", c[0], c[1])
		}
	}
	cm, err := NewCountMin(0.01, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if cm.width < 250 || cm.depth < 4 {
		t.Fatalf("sizing: width=%d depth=%d", cm.width, cm.depth)
	}
}

// TestCountMinNeverUndercounts is the sketch's hard guarantee.
func TestCountMinNeverUndercounts(t *testing.T) {
	f := func(keys []uint64) bool {
		cm, err := NewCountMin(0.05, 0.05)
		if err != nil {
			return false
		}
		truth := map[uint64]uint64{}
		for _, k := range keys {
			cm.Add(k, 1)
			truth[k]++
		}
		for k, want := range truth {
			if cm.Count(k) < want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountMinErrorBound(t *testing.T) {
	const epsilon = 0.01
	cm, err := NewCountMin(epsilon, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	truth := map[uint64]uint64{}
	z := rand.NewZipf(rng, 1.3, 1, 1<<16)
	const n = 200000
	for i := 0; i < n; i++ {
		k := z.Uint64()
		cm.Add(k, 1)
		truth[k]++
	}
	// Sample keys: the overwhelming majority must respect the ε·N bound
	// (the bound holds per key with prob ≥ 1−δ).
	violations := 0
	checked := 0
	bound := uint64(epsilon * float64(cm.Total()))
	for k, want := range truth {
		checked++
		if cm.Count(k) > want+bound {
			violations++
		}
		if checked == 2000 {
			break
		}
	}
	if violations > checked/20 {
		t.Fatalf("error bound violated for %d/%d keys", violations, checked)
	}
}

func TestCountMinReset(t *testing.T) {
	cm, _ := NewCountMin(0.1, 0.1)
	cm.Add(7, 5)
	cm.Reset()
	if cm.Count(7) != 0 || cm.Total() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestHeavyHittersFindsZipfHead(t *testing.T) {
	hh, err := NewHeavyHitters(10, 0.001, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	z := rand.NewZipf(rng, 1.5, 1, 1<<20)
	truth := map[uint64]uint64{}
	for i := 0; i < 300000; i++ {
		k := z.Uint64()
		hh.Offer(k, 1)
		truth[k]++
	}
	top := hh.TopK()
	if len(top) != 10 {
		t.Fatalf("TopK returned %d", len(top))
	}
	// With s=1.5 Zipf the true top items are unambiguous: keys 0..4 must be
	// among the reported top 10.
	reported := map[uint64]bool{}
	for _, c := range top {
		reported[c.Key] = true
	}
	for k := uint64(0); k < 5; k++ {
		if !reported[k] {
			t.Fatalf("true heavy key %d missing from %v", k, top)
		}
	}
	// Descending order.
	for i := 1; i < len(top); i++ {
		if top[i].Count > top[i-1].Count {
			t.Fatalf("TopK not sorted: %v", top)
		}
	}
	if hh.Total() != 300000 {
		t.Fatalf("Total = %d", hh.Total())
	}
}

func TestHeavyHittersValidationAndReset(t *testing.T) {
	if _, err := NewHeavyHitters(0, 0.01, 0.01); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := NewHeavyHitters(5, 2, 0.01); err == nil {
		t.Error("bad epsilon accepted")
	}
	hh, _ := NewHeavyHitters(2, 0.01, 0.01)
	hh.Offer(1, 10)
	hh.Reset()
	if len(hh.TopK()) != 0 || hh.Total() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestHeavyHittersSmallStream(t *testing.T) {
	hh, _ := NewHeavyHitters(3, 0.01, 0.01)
	for i := 0; i < 5; i++ {
		hh.Offer(100, 1)
	}
	hh.Offer(200, 1)
	top := hh.TopK()
	if len(top) != 2 || top[0].Key != 100 || top[0].Count != 5 {
		t.Fatalf("TopK = %v", top)
	}
}

func BenchmarkHeavyHittersOffer(b *testing.B) {
	hh, _ := NewHeavyHitters(20, 0.001, 0.01)
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.2, 1, 1<<20)
	keys := make([]uint64, 4096)
	for i := range keys {
		keys[i] = z.Uint64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hh.Offer(keys[i%len(keys)], 1)
	}
}

// candidates returns a tracker's candidate set as key → estimate at last
// touch.
func candidates(h *HeavyHitters) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(h.cand))
	for _, c := range h.cand {
		out[c.Key] = c.Count
	}
	return out
}

// TestHeavyHittersMatchesBruteForce drives the heap-backed tracker and a
// brute-force model of it — a map scanned for the weakest candidate, the
// highest key of equally weak ones — with the same seeded streams, heavy in
// repeated keys and in ties, and requires the same candidate set, with the
// same estimates, after every offer.
func TestHeavyHittersMatchesBruteForce(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 901} {
		rng := rand.New(rand.NewSource(seed))
		const k = 4
		h, err := NewHeavyHitters(k, 0.05, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		cm, err := NewCountMin(0.05, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		model := map[uint64]uint64{}
		for i := 0; i < 5000; i++ {
			key, inc := uint64(rng.Intn(40)), uint64(1+rng.Intn(3))
			if rng.Intn(3) == 0 {
				inc = 1
			}
			h.Offer(key, inc)

			cm.Add(key, inc)
			est := cm.Count(key)
			if _, ok := model[key]; ok || len(model) < 2*k {
				model[key] = est
			} else {
				weakKey, weak := uint64(0), uint64(0)
				first := true
				for ck, cv := range model {
					if first || cv < weak || (cv == weak && ck > weakKey) {
						weakKey, weak, first = ck, cv, false
					}
				}
				if est > weak {
					delete(model, weakKey)
					model[key] = est
				}
			}

			got := candidates(h)
			if len(got) != len(model) {
				t.Fatalf("seed %d offer %d: %d candidates, model has %d", seed, i, len(got), len(model))
			}
			for ck, cv := range model {
				if got[ck] != cv {
					t.Fatalf("seed %d offer %d: key %d estimate %d, model %d (got %v, model %v)", seed, i, ck, got[ck], cv, got, model)
				}
			}
		}
	}
}

// TestHeavyHittersEvictionIsDeterministic: with every candidate tied, an
// eviction takes the highest key, so two trackers fed the same stream agree
// on their candidates and their top k every time — map iteration order used
// to pick the victim.
func TestHeavyHittersEvictionIsDeterministic(t *testing.T) {
	const k = 8
	run := func() *HeavyHitters {
		h, err := NewHeavyHitters(k, 0.001, 0.001)
		if err != nil {
			t.Fatal(err)
		}
		for round := uint64(0); round < 50; round++ {
			// 2k tied keys fill the set; each newcomer beats them all by one.
			for key := uint64(0); key < 2*k; key++ {
				h.Offer(1000*round+key, 1)
			}
			h.Offer(1000*round+999, 2)
		}
		return h
	}
	first := run()
	for i := 0; i < 20; i++ {
		again := run()
		if !reflect.DeepEqual(candidates(first), candidates(again)) || !reflect.DeepEqual(first.TopK(), again.TopK()) {
			t.Fatalf("two runs of one stream disagree:\n%v\n%v", candidates(first), candidates(again))
		}
	}
	// And which one goes: 2k tied keys fill the set, and a heavier newcomer
	// evicts the highest of them.
	h, err := NewHeavyHitters(k, 0.001, 0.001)
	if err != nil {
		t.Fatal(err)
	}
	for key := uint64(1); key <= 2*k; key++ {
		h.Offer(key, 1)
	}
	h.Offer(100, 2)
	got := candidates(h)
	if _, ok := got[2*k]; ok {
		t.Fatalf("the highest of the tied keys, %d, should have been evicted: %v", 2*k, got)
	}
	if _, ok := got[100]; !ok || len(got) != 2*k {
		t.Fatalf("newcomer not tracked, or the set changed size: %v", got)
	}
}
