package sketch

import (
	"math/rand"
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
